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
against the base model, the fusion runs under the constrained one).

Exit codes: 0 success, 2 input error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace

from .bba import Bba, MassMatrix, validate_bba
from .diagnostics import Diagnostics
from .errors import (
    BeliefFusionError, CapacityError, ExprSyntaxError, ScenarioError, TotalConflictError, UnknownLabelError,
)
from .lattice import (
    CLOSED, FREE, HYBRID, MAX_HYPER_LABELS, SHAFER, Frame, Model, free_clauses, parse_expr, shafer_as_hybrid,
)
from .registry import RULE_ORDER, RuleOptions, run_rule
from .rules_core import conjunctive

COINCIDE_TOL = 1e-9
# Largest --precision: a float carries about 17 significant digits, and a
# table cell is as wide as its precision.
MAX_PRECISION = 100


@dataclass
class Scenario:
    frame: Frame
    model: Model
    fusion_model: Model
    sources: list
    stream: list
    rules: list
    options: RuleOptions
    path: str = "<scenario>"


@dataclass
class RuleRun:
    name: str
    bba: Bba | None = None
    error: str | None = None
    diag: Diagnostics = field(default_factory=Diagnostics)
    seconds: float = 0.0


@dataclass
class Report:
    scenario: Scenario
    runs: list
    k: float | None = None
    steps: list | None = None  # sequential mode: per-step rule runs
    comparisons: dict | None = None
    coincident: list | None = None

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


def _constraints(frame, texts, where, path):
    """Constraint expressions as free elements; a bad one is named by its field and entry."""
    elements = []
    for i, text in enumerate(texts):
        try:
            elements.append(frame.element(free_clauses(parse_expr(text, frame), frame)))
        except (UnknownLabelError, ExprSyntaxError) as exc:
            raise ScenarioError(f"{path}: {where} entry {i + 1}: {exc}") from None
    return elements


def scenario_from_dict(doc, path="<scenario>", overrides=None):
    overrides = overrides or {}
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: a scenario must be a JSON object")
    try:
        if "frame" not in doc:
            raise ScenarioError(f"{path}: missing field 'frame'")
        try:
            frame = Frame(_strings(doc, "frame", path))
        except CapacityError as exc:
            raise ScenarioError(f"{path}: frame: {exc}") from None
        mspec = _object(doc, "model", path)
        kind = mspec.get("kind", "shafer")
        if kind not in (FREE, SHAFER, HYBRID):
            raise ScenarioError(f"{path}: unknown model kind {kind!r}")
        theta0 = mspec.get("theta0", False)
        if not isinstance(theta0, bool):
            raise ScenarioError(f"{path}: 'theta0' must be true or false")
        try:
            model = Model(
                frame,
                kind,
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
        raw_sources = _tables(doc, "sources", path)
        if not raw_sources:
            raise ScenarioError(f"{path}: no sources")
        sources = []
        for i, table in enumerate(raw_sources):
            try:
                sources.append(validate_bba(Bba(model, table)))
            except BeliefFusionError as exc:
                raise ScenarioError(f"{path}: source {i + 1}: {exc}") from exc
        stream = []
        for i, table in enumerate(_tables(doc, "stream", path)):
            try:
                stream.append(validate_bba(Bba(model, table)))
            except BeliefFusionError as exc:
                raise ScenarioError(f"{path}: stream entry {i + 1}: {exc}") from exc
        # a rule named twice runs once, where it is first named
        rules = list(dict.fromkeys(overrides.get("rules") or _strings(doc, "rules", path) or RULE_ORDER))
        for r in rules:
            if r not in RULE_ORDER:
                raise ScenarioError(f"{path}: unknown rule {r!r}")
        ospec = dict(_object(doc, "options", path))
        ospec.update({k: v for k, v in overrides.items() if k != "rules" and v is not None})
        order = ospec.get("order")
        n = len(sources)
        if order is not None and not (isinstance(order, list) and all(type(i) is int for i in order)
                                      and sorted(order) == list(range(1, n + 1))):
            raise ScenarioError(f"{path}: order must be a permutation of 1..{n}")
        options = RuleOptions(
            minc_version=ospec.get("minc_version", "a"),
            wao_mode=ospec.get("wao_mode", "static"),
            pcr5_variant=ospec.get("pcr5", "exact"),
            order=tuple(order) if order else None,
        )
        if options.minc_version not in ("a", "b"):
            raise ScenarioError(f"{path}: minc_version must be 'a' or 'b'")
        if options.wao_mode not in ("static", "dynamic"):
            raise ScenarioError(f"{path}: wao_mode must be 'static' or 'dynamic'")
        if options.pcr5_variant not in ("exact", "approx"):
            raise ScenarioError(f"{path}: pcr5 must be 'exact' or 'approx'")
        return Scenario(frame, model, fusion_model, sources, stream, rules, options, path)
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing field {exc}") from None


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
    k = float(conjunctive(matrix, scenario.fusion_model).reduced()[2])
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
    step = replace(scenario, options=replace(scenario.options, order=None))
    steps = []
    for obs in scenario.stream:
        runs = [run if run.error else _execute(run.name, MassMatrix([run.bba, obs]), step)
                for run in runs]
        steps.append(runs)
    return Report(scenario, runs, steps=steps)


def compare_rules(scenario) -> Report:
    """Run every rule and flag the pairs that coincide."""
    report = run_scenario(replace(scenario, rules=list(RULE_ORDER)))
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
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


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
    p.add_argument("--minc-version", choices=("a", "b"), default=None)
    p.add_argument("--wao-mode", choices=("static", "dynamic"), default=None)
    p.add_argument("--pcr5", choices=("exact", "approx"), default=None)
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
        "minc_version": args.minc_version,
        "wao_mode": args.wao_mode,
        "pcr5": args.pcr5,
        "order": args.order,
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
