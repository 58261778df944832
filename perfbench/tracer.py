"""Spans and counters around the package's layers, installed from outside.

``Tracer.install(mf)`` replaces the public functions and methods of each
layer with wrappers that open a span (name, request id, parent span, start,
end) and bump the layer's counters; ``uninstall()`` puts the originals back.
Nothing in the package changes, and an untraced run never imports this.

Per request the tracer accumulates, under the per-layer metric names:

* ``*_self_ms``: self time, a span's duration minus that of its child spans;
* other ``*_ms``: inclusive time of the outermost span of that name;
* counts: calls, work units (product terms, ledger terms, fold entries) and
  reduce misses, i.e. keys a model is asked to reduce for the first time.

Spans of the coarse layers are also kept one by one and written out at the
end; the hot leaf layers (reduce, kernels, parsing, ``Bba`` construction
and conversion) only aggregate, to keep memory and overhead bounded.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns

KERNEL_OPS = {"intersect_canon": "intersect", "union_canon": "union", "absorb_masks": "absorb"}
HOT = ("lattice.reduce", "lattice.parse", "kernels.", "bba.construct", "bba.fractions")


def _product(matrix):
    return math.prod(len(src) for src in matrix.sources)


def _count(key):
    def after(cur, args, result):
        if cur is not None:
            cur[key] += 1
    return after


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [start_ns, child_ns, span_id]
        self.depth = defaultdict(int)  # open spans per name
        self.spans = []  # (request, span id, parent id, name, start_ns, end_ns)
        self.next_id = 0
        self.request = None
        self.current = None  # metric -> value for the open request
        self.seen = {}  # id(model) -> clause tuples that model has reduced
        self.built = []  # models built inside the open request
        self._patches = []

    # --- requests ---------------------------------------------------------

    def begin(self, request):
        self.request = request
        self.current = defaultdict(int)
        self.built = []
        self.next_id += 1
        self.stack.append([perf_ns(), 0, self.next_id])

    def end(self):
        start, _, span_id = self.stack.pop()
        self.spans.append((self.request, span_id, None, "request", start, perf_ns()))
        # a model built inside a request dies with it, and its id may be reused
        for model_id in self.built:
            self.seen.pop(model_id, None)
        out, self.current, self.request = self.current, None, None
        return dict(out)

    # --- wrapping ---------------------------------------------------------

    def span(self, name, fn, inclusive=None, self_key=None, after=None):
        """Wrap ``fn`` in a span; ``after(metrics, args, result)`` adds counts."""
        tracer, stack, depth, spans = self, self.stack, self.depth, self.spans
        record = not name.startswith(HOT)

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            tracer.next_id += 1
            frame = [perf_ns(), 0, tracer.next_id]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_ns()
                stack.pop()
                depth[name] -= 1
                elapsed = end - frame[0]
                if stack:
                    stack[-1][1] += elapsed
                cur = tracer.current
                if cur is not None:
                    if self_key is not None:
                        cur[self_key] += elapsed - frame[1]
                    if inclusive is not None and not depth[name]:
                        cur[inclusive] += elapsed
                if record:
                    spans.append((tracer.request, frame[2], parent, name, frame[0], end))
            if after is not None:
                after(tracer.current, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn):
        """Wrap ``fn`` to count its calls under ``key``, without a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.current is not None:
                tracer.current[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        """Rebind ``owner.attr`` (or ``owner[attr]`` for a dict), remembering the original."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _patch_everywhere(self, modules, original, wrapper):
        """Rebind every module-level name that refers to ``original``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self, mf):
        """Wrap the layers of the package ``mf`` (``massfusion``, with ``cli`` loaded)."""
        from massfusion import (
            _transfer, bba, cli, diagnostics, kernels, lattice, registry,
            rules_classic, rules_core, rules_minc, rules_pcr,
        )

        modules = (mf, lattice, bba, rules_core, rules_classic, rules_pcr, rules_minc,
                   registry, cli, _transfer)
        seen, tracer = self.seen, self

        # lattice
        def on_build(cur, args, _):
            seen.pop(id(args[0]), None)
            if cur is not None:
                tracer.built.append(id(args[0]))

        def on_reduce(cur, args, _):
            model, key = args[0], args[1].clauses
            keys = seen.get(id(model))
            if keys is None:
                keys = seen[id(model)] = set()
            fresh = key not in keys
            if fresh:
                keys.add(key)
            if cur is not None:
                cur["lattice.reduce_calls"] += 1
                cur["lattice.reduce_misses"] += fresh

        Model = lattice.Model
        self._patch(Model, "__init__", self.span(
            "lattice.model_build", Model.__init__, inclusive="lattice.model_build_ms", after=on_build))
        self._patch(Model, "reduce", self.span(
            "lattice.reduce", Model.reduce, self_key="lattice.reduce_self_ms", after=on_reduce))
        for fn in (lattice.parse_expr, lattice.free_clauses):
            self._patch_everywhere(modules, fn, self.span("lattice.parse", fn, inclusive="lattice.parse_ms"))

        # kernels: calls into the layer from the other modules
        for attr, op in KERNEL_OPS.items():
            fn = getattr(kernels, attr)
            self._patch_everywhere(modules, fn, self.span(
                f"kernels.{op}", fn, self_key="kernels.self_ms", after=_count(f"kernels.{op}_calls")))

        # bba
        Bba, MassMatrix = bba.Bba, bba.MassMatrix
        self._patch(Bba, "__init__", self.span("bba.construct", Bba.__init__, inclusive="bba.construct_ms"))
        self._patch_everywhere(modules, bba.validate_bba, self.span(
            "bba.construct", bba.validate_bba, inclusive="bba.construct_ms"))
        self._patch(Bba, "fractions", self.span("bba.fractions", Bba.fractions, inclusive="bba.fractions_ms"))
        self._patch(MassMatrix, "column_sums", self.span(
            "bba.column_sums", MassMatrix.column_sums, inclusive="bba.column_sums_ms"))

        def on_ledger(cur, args, result):
            if cur is not None:
                cur["bba.ledger_calls"] += 1
                cur["bba.ledger_products"] += _product(args[0])
                cur["bba.ledger_terms"] += len(result.terms)

        self._patch_everywhere(modules, bba.conflict_ledger, self.span(
            "bba.ledger", bba.conflict_ledger, inclusive="bba.ledger_ms", after=on_ledger))

        # rules_core
        def on_conjunctive(cur, args, result):
            if cur is not None:
                cur["rules_core.conjunctive_calls"] += 1
                cur["rules_core.fold_products"] += _product(args[0])
                cur["rules_core.fold_entries"] += len(result.masses)

        self._patch_everywhere(modules, rules_core.conjunctive, self.span(
            "rules_core.conjunctive", rules_core.conjunctive, inclusive="rules_core.fold_ms",
            after=on_conjunctive))
        Raw = rules_core.RawConjunctive
        self._patch(Raw, "reduced", self.span("rules_core.reduced", Raw.reduced, inclusive="rules_core.reduced_ms"))

        # rules, as dispatched by the registry
        for name, fn in list(registry.RULES.items()):
            self._patch(registry.RULES, name, self.span(f"rules.{name}", fn, self_key=f"rules.{name}_self_ms"))
        self._patch_everywhere(modules, _transfer.proportional,
                               self.counter("transfer.proportional_calls", _transfer.proportional))
        self._patch_everywhere(modules, _transfer.fallback_chain,
                               self.counter("transfer.fallback_calls", _transfer.fallback_chain))
        Diagnostics = diagnostics.Diagnostics
        for method in ("record", "fallback"):
            self._patch(Diagnostics, method, self.counter("diagnostics.records", getattr(Diagnostics, method)))

        # cli
        for attr, metric in (("scenario_from_dict", "cli.load"), ("run_scenario", "cli.run"),
                             ("render_report", "cli.render")):
            self._patch(cli, attr, self.span(metric, getattr(cli, attr), inclusive=f"{metric}_ms"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path):
        """Recorded spans as JSON lines, times in nanoseconds."""
        keys = ("request", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
