"""Scenario runner: rule tables, comparisons, and sequential fusion.

A scenario is one JSON document::

    {"frame": ["A", "B"],
     "model": {"kind": "shafer", "empty": [], "world": "closed", "theta0": false},
     "sources": [{"A": 0.6, "B": 0.3, "A|B": 0.1}, ...],
     "stream": [{"A": 0.1, "B": 0.9}, ...],
     "dynamic_empty": ["B"],
     "rules": ["pcr5", "minc"],
     "options": {"minc_version": "a", "wao_mode": "static",
                 "pcr5": "exact", "order": [1, 2, 3]}}

``stream`` feeds sequential fusion; ``dynamic_empty`` adds constraints that
arrived after the sources committed their masses (the sources stay valid
against the base model, the fusion runs under the constrained one).  The
rule variants under ``options`` (also the flags ``--minc-version``,
``--wao-mode`` and ``--pcr5``) and the values they allow come from
:data:`registry.VARIANTS`; an absent one keeps its :class:`RuleOptions`
default.  The frame, the model and each source or stream entry are checked
by the classes that build them, and an error names the field it came from.

Exit codes: 0 success, 2 input error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple

from .bba import Bba, MassMatrix, validate_bba
from .diagnostics import Diagnostics
from .errors import (
    BeliefFusionError, CapacityError, ExprSyntaxError, ScenarioError, TotalConflictError, UnknownLabelError,
)
from .lattice import CLOSED, HYBRID, MAX_HYPER_LABELS, SHAFER, Frame, Model, parse_expr, shafer_as_hybrid
from .registry import RULE_ORDER, VARIANTS, RuleOptions, run_rule
from .rules_core import conjunctive

COINCIDE_TOL = 1e-9
# Largest --precision: a float carries about 17 significant digits, and a
# table cell is as wide as its precision.
MAX_PRECISION = 100


class Scenario(namedtuple("Scenario", "frame model fusion_model sources stream rules options path",
                          defaults=("<scenario>",))):
    """A loaded scenario: its models, validated sources and stream, rules and options."""

    __slots__ = ()


class RuleRun:
    """One rule's run: its result or error, its diagnostics and its time."""

    __slots__ = ("name", "bba", "error", "diag", "seconds")

    def __init__(self, name):
        self.name = name
        self.bba = None
        self.error = None
        self.diag = Diagnostics()
        self.seconds = 0.0


class Report:
    """The runs of a scenario, with the runs after each sequential step or the pairwise comparisons."""

    __slots__ = ("scenario", "runs", "k", "steps", "comparisons", "coincident")

    def __init__(self, scenario, runs, k=None, steps=None):
        self.scenario = scenario
        self.runs = runs
        self.k = k
        self.steps = steps
        self.comparisons = None
        self.coincident = None

    def failed(self):
        return [r for r in self.runs if r.error]


def load_scenario(path, overrides=None):
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, an integer of over 4300 digits, deep nesting
        raise ScenarioError(f"{path}: {exc}") from exc
    return scenario_from_dict(doc, path=path, overrides=overrides)


def _object(doc, key, path):
    """The JSON object under ``key``, empty when absent."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: {key!r} must be an object")
    return value


def _strings(doc, key, path):
    """The list of strings under ``key`` (labels or element expressions), empty when absent."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ScenarioError(f"{path}: {key!r} must be a list of strings")
    return value


def _tables(doc, key, path):
    """The list of mass tables under ``key``, checked for shape."""
    tables = doc.get(key, [])
    if not isinstance(tables, list) or not all(isinstance(t, dict) for t in tables):
        raise ScenarioError(f"{path}: {key!r} must be a list of objects mapping elements to masses")
    return tables


def _bbas(doc, key, model, where, path):
    """The mass tables under ``key`` as validated assignments; a bad one is named by ``where`` and its number.

    Each table goes to :class:`Bba` as it is, so its keys read as the
    library reads them (:meth:`Model.canonical`): a key that is exactly
    ``θ0`` or ``∅``, as the machine format writes them, is that element,
    and :func:`validate_bba` refuses mass on ``θ0`` under a model that does
    not enable it.
    """
    bbas = []
    for i, table in enumerate(_tables(doc, key, path)):
        try:
            bbas.append(validate_bba(Bba(model, table)))
        except BeliefFusionError as exc:
            raise ScenarioError(f"{path}: {where} {i + 1}: {exc}") from exc
    return bbas


def _constraints(frame, texts, where, path):
    """Constraint expressions as free elements; a bad one is named by its field and entry."""
    elements = []
    for i, text in enumerate(texts):
        try:
            elements.append(parse_expr(text, frame))
        except (UnknownLabelError, ExprSyntaxError) as exc:
            raise ScenarioError(f"{path}: {where} entry {i + 1}: {exc}") from None
    return elements


def scenario_from_dict(doc, path="<scenario>", overrides=None):
    """Build a :class:`Scenario` from a parsed document.

    ``overrides`` (the CLI's flags) replace the document's ``rules`` and
    ``options`` fields, but only after those fields are checked as written,
    so a flag never hides a malformed field.
    """
    overrides = overrides or {}
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: a scenario must be a JSON object")
    if "frame" not in doc:
        raise ScenarioError(f"{path}: missing field 'frame'")
    try:
        frame = Frame(_strings(doc, "frame", path))
    except CapacityError as exc:
        raise ScenarioError(f"{path}: frame: {exc}") from None
    mspec = _object(doc, "model", path)
    theta0 = mspec.get("theta0", False)
    if not isinstance(theta0, bool):
        raise ScenarioError(f"{path}: 'theta0' must be true or false")
    try:
        model = Model(
            frame,
            mspec.get("kind", SHAFER),
            _constraints(frame, _strings(mspec, "empty", path), "model.empty", path),
            world=mspec.get("world", CLOSED),
            theta0=theta0,
        )
    except (ValueError, CapacityError) as exc:
        raise ScenarioError(f"{path}: model: {exc}") from None
    dynamic = _constraints(frame, _strings(doc, "dynamic_empty", path), "dynamic_empty", path)
    if dynamic:
        try:
            base = shafer_as_hybrid(frame) if model.kind == SHAFER else model
            fusion_model = Model(
                frame, HYBRID, base.constraints + tuple(dynamic),
                world=model.world, theta0=model.theta0_enabled,
            )
        except CapacityError as exc:
            raise ScenarioError(
                f"{path}: dynamic_empty needs a frame of at most {MAX_HYPER_LABELS} labels: {exc}"
            ) from None
    else:
        fusion_model = model
    sources = _bbas(doc, "sources", model, "source", path)
    if not sources:
        raise ScenarioError(f"{path}: no sources")
    stream = _bbas(doc, "stream", model, "stream entry", path)
    named, ospec, n = _strings(doc, "rules", path), _object(doc, "options", path), len(sources)
    # the file's own fields are checked as written first, so a flag cannot hide a malformed one
    _rules(named, path)
    _options(ospec, n, path)
    rules = _rules(overrides.get("rules") or named or RULE_ORDER, path)
    options = _options({**ospec, **{k: v for k, v in overrides.items() if k != "rules" and v is not None}}, n, path)
    return Scenario(frame, model, fusion_model, sources, stream, rules, options, path)


def _rules(names, path):
    """The rules to run, each once, where it is first named."""
    for r in names:
        if r not in RULE_ORDER:
            raise ScenarioError(f"{path}: unknown rule {r!r}")
    return list(dict.fromkeys(names))


def _options(spec, n, path):
    """The :class:`RuleOptions` of an ``options`` object, for ``n`` sources."""
    order = spec.get("order")
    if order is not None and not (isinstance(order, list) and all(type(i) is int for i in order)
                                  and sorted(order) == list(range(1, n + 1))):
        raise ScenarioError(f"{path}: order must be a permutation of 1..{n}")
    variants = {}
    for option, (field, allowed) in VARIANTS.items():
        if option in spec:
            if spec[option] not in allowed:
                raise ScenarioError(f"{path}: {option} must be {' or '.join(map(repr, allowed))}")
            variants[field] = spec[option]
    return RuleOptions(order=tuple(order) if order else None, **variants)


def _execute(name, matrix, scenario):
    run = RuleRun(name)
    start = time.perf_counter()
    try:
        run.bba = run_rule(name, matrix, scenario.fusion_model, scenario.options, run.diag)
    except TotalConflictError as exc:
        run.error = str(exc)
    run.seconds = time.perf_counter() - start
    return run


def run_scenario(scenario) -> Report:
    """Run the selected rules once over all sources."""
    matrix = MassMatrix(scenario.sources)
    runs = [_execute(name, matrix, scenario) for name in scenario.rules]
    raw = conjunctive(matrix, scenario.fusion_model)
    k = raw.numerators()[2] / raw.den
    return Report(scenario, runs, k=k)


def sequential_fusion(scenario) -> Report:
    """Fold the stream into the sources one observation at a time.

    The sources are fused once, by :func:`run_scenario`; each rule's result
    is then its prior for the next observation, and only that result is
    kept.  A rule that fails keeps its failed run for the remaining steps.
    The report carries every rule's run after every step.  A step's result
    lives on the fusion model and the stream on the base model, so a
    scenario with ``dynamic_empty`` is refused.  The source ``order`` names
    the initial sources, so the steps, each fusing (prior, observation),
    run without it.
    """
    if not scenario.stream:
        raise ScenarioError(f"{scenario.path}: sequential mode needs a 'stream'")
    if scenario.fusion_model != scenario.model:
        raise ScenarioError(f"{scenario.path}: sequential mode does not support 'dynamic_empty'")
    runs = run_scenario(scenario).runs
    step = scenario._replace(options=scenario.options._replace(order=None))
    steps = []
    for obs in scenario.stream:
        runs = [run if run.error else _execute(run.name, MassMatrix([run.bba, obs]), step)
                for run in runs]
        steps.append(runs)
    return Report(scenario, runs, steps=steps)


def compare_rules(scenario) -> Report:
    """Run every rule and flag the pairs that coincide."""
    report = run_scenario(scenario._replace(rules=list(RULE_ORDER)))
    ok = [r for r in report.runs if not r.error]
    diffs = {}
    coincident = []
    for i, a in enumerate(ok):
        for b in ok[i + 1:]:
            elems = set(a.bba) | set(b.bba)
            d = max((abs(a.bba[e] - b.bba[e]) for e in elems), default=0.0)
            diffs[(a.name, b.name)] = d
            if d <= COINCIDE_TOL:
                coincident.append((a.name, b.name))
    report.comparisons = diffs
    report.coincident = coincident
    return report


# --- rendering --------------------------------------------------------------


def _element_columns(runs):
    elems = set()
    for run in runs:
        if run.bba is not None:
            elems.update(run.bba.keys())
    return sorted(elems)


def _format_table(runs, precision, timing):
    """One column per rule, then each rule's error, deficit and notes, even when no mass is left."""
    elems = _element_columns(runs)
    lines = []
    if elems:
        width = max(10, precision + 4)
        name_w = max([len(str(e)) for e in elems] + [7])
        lines.append(" ".join([" " * name_w] + [f"{run.name:>{width}}" for run in runs]))
        for e in elems:
            cells = []
            for run in runs:
                if run.error:
                    cells.append(f"{'—':>{width}}")
                else:
                    cells.append(f"{run.bba[e]:>{width}.{precision}f}")
            lines.append(" ".join([f"{str(e):<{name_w}}"] + cells))
        total_row = []
        for run in runs:
            total_row.append(f"{'—':>{width}}" if run.error else f"{run.bba.total():>{width}.{precision}f}")
        lines.append(" ".join([f"{'(sum)':<{name_w}}"] + total_row))
    for run in runs:
        if run.error:
            lines.append(f"! {run.name}: {run.error}")
        if run.diag.sum_deficit:
            lines.append(f"! {run.name}: sum below one by {run.diag.sum_deficit:.{precision}f}")
        for note in run.diag.notes:
            lines.append(f"# {run.name}: {note}")
    lines = lines or ["(no results)"]
    if timing:
        lines.append("timing: " + " ".join(f"{r.name}={r.seconds * 1e3:.2f}ms" for r in runs))
    return lines


def render_report(report, fmt="table", precision=6, timing=False):
    scenario = report.scenario
    if fmt == "machine":
        return _render_machine(report, precision, timing)
    lines = [f"scenario: {scenario.path}",
             f"frame: {', '.join(scenario.frame.labels)}  model: {scenario.fusion_model.kind}"
             + (f"  constraints: {', '.join(str(c) for c in scenario.fusion_model.constraints)}"
                if scenario.fusion_model.constraints else "")]
    if report.k is not None:
        lines.append(f"total conflict k = {report.k:.{precision}f}")
    if report.steps is not None:
        for i, step_runs in enumerate(report.steps, start=1):
            lines.append(f"-- step {i} --")
            lines.extend(_format_table(step_runs, precision, timing))
    else:
        lines.extend(_format_table(report.runs, precision, timing))
    if report.comparisons is not None:
        lines.append("-- pairwise max |difference| --")
        for (a, b), d in sorted(report.comparisons.items()):
            lines.append(f"{a} vs {b}: {d:.{precision}f}")
        if report.coincident:
            for a, b in report.coincident:
                lines.append(f"= {a} coincides with {b}")
    return "\n".join(lines)


def _render_machine(report, precision, timing):
    names = {}  # element -> its text, once per report: the same elements recur across rules

    def name(e):
        text = names.get(e)
        if text is None:
            text = names[e] = str(e)
        return text

    def bba_dict(b):
        return {name(e): round(v, 12) for e, v in b.items()}

    doc = {"scenario": report.scenario.path, "k": report.k, "rules": {}}
    for run in report.runs:
        entry = {}
        if run.error:
            entry["error"] = run.error
        else:
            entry["masses"] = bba_dict(run.bba)
            entry["sum"] = round(run.bba.total(), 12)
        if run.diag.sum_deficit:
            entry["sum_deficit"] = run.diag.sum_deficit
        if run.diag.order:
            entry["order"] = list(run.diag.order)
        if run.diag.fallbacks:
            entry["fallbacks"] = [
                {"stage": f.stage, "destination": name(f.destination), "amount": float(f.amount)}
                for f in run.diag.fallbacks
            ]
        if timing:
            entry["seconds"] = run.seconds
        doc["rules"][run.name] = entry
    if report.steps is not None:
        doc["steps"] = [
            {run.name: (bba_dict(run.bba) if run.bba is not None else {"error": run.error})
             for run in step}
            for step in report.steps
        ]
    if report.comparisons is not None:
        doc["comparisons"] = {f"{a}|{b}": d for (a, b), d in sorted(report.comparisons.items())}
        doc["coincident"] = [list(p) for p in report.coincident]
    return _dump(doc, "\n")


def _dump(obj, pad):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)``.

    ``obj`` holds dicts with str keys, lists and scalars; ``pad`` is the
    newline and indent of the line it starts on.  With ``indent`` the json
    module takes its pure-Python encoder, so a container holding no
    containers goes to the C encoder in one call, its item separator
    carrying the newline and indent; only nested containers are walked.
    """
    if not obj or not isinstance(obj, (dict, list)):
        return json.dumps(obj, ensure_ascii=False)
    inner = pad + "  "
    if not any(isinstance(v, (dict, list)) for v in (obj.values() if isinstance(obj, dict) else obj)):
        text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=("," + inner, ": "))
    elif isinstance(obj, dict):
        text = "{" + ("," + inner).join(
            f"{json.dumps(k, ensure_ascii=False)}: {_dump(obj[k], inner)}" for k in sorted(obj)) + "}"
    else:
        text = "[" + ("," + inner).join(_dump(v, inner) for v in obj) + "]"
    return text[0] + inner + text[1:-1] + pad + text[-1]


def _order(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected source numbers like 1,2,3, got {text!r}") from None


def _precision(text):
    if not text.isdigit() or int(text) > MAX_PRECISION:
        raise argparse.ArgumentTypeError(f"expected an integer from 0 to {MAX_PRECISION}, got {text!r}")
    return int(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="massfusion",
        description="Combine belief assignments from a scenario file under the "
                    "classic and conflict-redistribution rules.",
    )
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--rule", action="append", dest="rules", metavar="NAME",
                   help=f"rule to run (repeatable); one of: {', '.join(RULE_ORDER)}")
    p.add_argument("--all", action="store_true", help="run every registered rule")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--compare", action="store_true",
                      help="run every rule and report pairwise differences")
    mode.add_argument("--sequential", action="store_true",
                      help="fold the scenario's stream one observation at a time")
    for option, (_, allowed) in VARIANTS.items():
        p.add_argument("--" + option.replace("_", "-"), choices=allowed)
    p.add_argument("--order", type=_order, default=None, metavar="I,J,...",
                   help="source order for the approximate PCR5 variant")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.add_argument("--precision", type=_precision, default=6, metavar="N")
    p.add_argument("--timing", action="store_true", help="include per-rule timings")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rules and (args.all or args.compare):
        other = "--all" if args.all else "--compare"
        parser.error(f"argument --rule: not allowed with argument {other}")
    overrides = {
        "rules": list(RULE_ORDER) if (args.all or args.compare) else args.rules,
        "order": args.order,
        **{option: getattr(args, option) for option in VARIANTS},
    }
    try:
        scenario = load_scenario(args.scenario, overrides)
    except BeliefFusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.sequential:
            report = sequential_fusion(scenario)
        elif args.compare:
            report = compare_rules(scenario)
        else:
            report = run_scenario(scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BeliefFusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(render_report(report, args.format, args.precision, args.timing))
    return 3 if report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
