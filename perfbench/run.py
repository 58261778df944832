#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the massfusion engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``hyper_scenarios`` sends scenario
documents through the command-line path (``scenario_from_dict`` ->
``run_scenario`` with all 14 rules -> ``render_report(..., "machine")``);
``tracking_stream`` fuses one observation per request into five running
priors through ``run_rule`` on one long-lived hybrid model.  One client
thread, closed loop: the next request starts when the previous one has
returned.

A run builds its inputs from the seed, sends request 0 as a warm-up, then
times requests one by one until ``--seconds`` of request time has passed.
Every output is checked outside the timed region (non-negative masses,
normalization, the WAO deficit, Dempster only undefined under total
conflict); a request with an exception or a failed check counts as failed.
A seeded sample of the first requests is compared with the independent
references in ``tests/oracles.py``, and the outputs of the first requests
are hashed into a digest that two commits can compare.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests twice, first untraced and then with every layer wrapped by
``tracer.Tracer``, and reports the per-layer metrics: counts are per request
over the first requests of the workload (they repeat exactly for a seed),
times are per-request means over the traced run.  ``trace.overhead_ratio``
is traced over untraced request time on the requests both runs completed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record (environment, digest, tail percentile, problems), which is also
written to ``.perfbench_out/`` together with the traced spans.
``--setup-probe`` is internal: it times ``import massfusion`` plus the
warm-up request in a fresh interpreter.  The benchmark's own self-test is
``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
UNTRACED_SHARE = 1 / 3  # of a traced run's seconds, spent on the untraced baseline
ORACLE_SAMPLE = 3  # requests of the check set cross-checked against the oracles
TAIL_BEYOND = 10

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# the registry's rule names, as in ``workloads.RULES``
RULE_NAMES = ("conjunctive", "disjunctive", "dempster", "smets", "yager", "dubois_prade",
              "dsm_hybrid", "wao", "minc", "pcr1", "pcr2", "pcr3", "pcr4", "pcr5")
PER_LAYER = (
    ("lattice.reduce_calls", "count"),
    ("lattice.reduce_misses", "count"),
    ("lattice.reduce_self_ms", "ms"),
    ("lattice.model_build_ms", "ms"),
    ("lattice.parse_ms", "ms"),
    ("kernels.intersect_calls", "count"),
    ("kernels.union_calls", "count"),
    ("kernels.absorb_calls", "count"),
    ("kernels.self_ms", "ms"),
    ("kernels.intersect_ns", "ns"),
    ("kernels.union_ns", "ns"),
    ("kernels.absorb_ns", "ns"),
    ("bba.construct_ms", "ms"),
    ("bba.fractions_ms", "ms"),
    ("bba.column_sums_ms", "ms"),
    ("bba.ledger_calls", "count"),
    ("bba.ledger_ms", "ms"),
    ("bba.ledger_products", "count"),
    ("bba.ledger_terms", "count"),
    ("rules_core.conjunctive_calls", "count"),
    ("rules_core.fold_ms", "ms"),
    ("rules_core.fold_products", "count"),
    ("rules_core.fold_entries", "count"),
    ("rules_core.reduced_ms", "ms"),
    *((f"rules.{name}_self_ms", "ms") for name in RULE_NAMES),
    ("transfer.proportional_calls", "count"),
    ("transfer.fallback_calls", "count"),
    ("cli.load_ms", "ms"),
    ("cli.run_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("diagnostics.records", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def locate():
    """Put the package and its test oracles on the path, or stop."""
    for needed in ("src/massfusion/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}: run from a massfusion checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# --- environment -----------------------------------------------------------


def commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "massfusion"
    for path in sorted(pkg.glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(mf):
    return {
        "python": platform.python_version(),
        "kernel_backend": mf.KERNEL_BACKEND,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --- running ---------------------------------------------------------------


class Phase:
    """Requests of one pass over a workload, from request 0."""

    def __init__(self):
        self.latencies = []  # seconds, timed requests only
        self.attempted = 0
        self.failed = 0
        self.problems = []  # the first few, as text
        self.views = []  # digest views of the check set
        self.metrics = []  # per-request tracer metrics, by request index

    def digest(self):
        import verify

        return verify.digest(self.views)


def run_phase(wl, mf, seconds, seed, tracer=None):
    """Request 0 untimed, then timed requests for ``seconds``, then the rest of the check set."""
    sample = set(random.Random(f"oracle:{wl.name}:{seed}").sample(range(wl.check_count), ORACLE_SAMPLE))
    phase = Phase()
    state = wl.start(mf)
    measured = 0.0
    i = 0
    while i == 0 or measured < seconds or i < wl.check_count:
        timed = i > 0 and measured < seconds
        wl.prepare(i)
        if tracer is not None:
            tracer.begin(i)
        start = time.perf_counter()
        try:
            output, problems = wl.request(state, i), []
        except Exception as exc:  # any exception fails the request; the run goes on
            output, problems = None, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if tracer is not None:
            phase.metrics.append(tracer.end())
        if timed:
            phase.latencies.append(elapsed)
            measured += elapsed
        if output is not None:
            view, problems = wl.check(i, output)
            if i < wl.check_count:
                phase.views.append(view)
                if i in sample:
                    problems += wl.cross_check(i, output)
        elif i < wl.check_count:
            phase.views.append(None)
        phase.attempted += 1
        if problems:
            phase.failed += 1
            if len(phase.problems) < 5:
                phase.problems.append(f"request {i}: {'; '.join(problems)}")
        i += 1
    return phase


def setup_probe(wl):
    """Seconds for ``import massfusion`` plus the warm-up request, in this process."""
    wl.prepare(0)
    start = time.perf_counter()
    import massfusion
    import massfusion.cli  # noqa: F401

    try:
        wl.request(wl.start(massfusion), 0)
        error = None
    except Exception as exc:  # reported by the parent as a failed check
        error = f"{type(exc).__name__}: {exc}"
    return {"setup_s": time.perf_counter() - start, "error": error}


def setup_samples(args, problems):
    """Set-up time from fresh interpreters, which is what a user pays."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"])
        if probe["error"]:
            problems.append(f"set-up probe: {probe['error']}")
    return samples


def tail(latencies):
    """The highest percentile with ``TAIL_BEYOND`` samples above it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def kernel_costs(seed, count=3000, repeats=5):
    """Nanoseconds per kernel operation on random six-label elements, best of ``repeats``."""
    from massfusion import kernels

    rng = random.Random(f"kernels:{seed}")
    full = (1 << 6) - 1
    elements = [kernels.absorb_masks([rng.randint(1, full) for _ in range(rng.randint(1, 4))])
                for _ in range(count)]
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(count)]
    raw = [[rng.randint(0, full) for _ in range(6)] for _ in range(count)]
    ops = {
        "intersect": lambda: [kernels.intersect_canon(a, b) for a, b in pairs],
        "union": lambda: [kernels.union_canon(a, b) for a, b in pairs],
        "absorb": lambda: [kernels.absorb_masks(m) for m in raw],
    }
    out = {}
    for op, fn in ops.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter_ns()
            fn()
            best = min(best, time.perf_counter_ns() - start)
        out[f"kernels.{op}_ns"] = best / count
    return out


def end_to_end(args, wl, mf, record):
    phase = run_phase(wl, mf, args.seconds, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_samples(args, record["problems"])
    percentile, tail_s = tail(phase.latencies)
    values = {
        "requests_per_s": len(phase.latencies) / sum(phase.latencies),
        "latency_p50_ms": statistics.median(phase.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    record.update(samples=len(phase.latencies), tail_percentile=round(percentile, 3),
                  setup_samples=setups, digest=phase.digest())
    return [phase], {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(args, wl, mf, record):
    from tracer import Tracer

    plain = run_phase(wl, mf, args.seconds * UNTRACED_SHARE, args.seed)
    tracer = Tracer()
    tracer.install(mf)
    try:
        traced = run_phase(wl, mf, args.seconds * (1 - UNTRACED_SHARE), args.seed, tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    check_set = traced.metrics[:wl.check_count]
    timed = traced.metrics[1:1 + len(traced.latencies)]
    values = kernel_costs(args.seed)
    for name, unit in PER_LAYER:
        if unit == "count":
            values[name] = sum(m.get(name, 0) for m in check_set) / len(check_set)
        elif unit == "ms":
            values[name] = sum(m.get(name, 0) for m in timed) / len(timed) / 1e6
    common = min(len(plain.latencies), len(traced.latencies))
    values["trace.overhead_ratio"] = sum(traced.latencies[:common]) / sum(plain.latencies[:common])
    record.update(samples=len(traced.latencies), untraced_samples=len(plain.latencies),
                  digest=traced.digest(), untraced_digest=plain.digest(),
                  counted_requests=len(check_set))
    if plain.digest() != traced.digest():
        record["problems"].append("tracing changed the outputs")
    return [plain, traced], {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    locate()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(json.dumps(setup_probe(wl)))
        return 0

    import massfusion as mf
    import massfusion.cli  # noqa: F401

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(mf), "problems": []}
    measure = per_layer if args.trace else end_to_end
    phases, metrics = measure(args, wl, mf, record)
    for phase in phases:
        record["problems"] += phase.problems
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0 and not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({k: v for k, v in record.items() if k not in result or k == "correct"},
                     ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
