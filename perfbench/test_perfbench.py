"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Checks that inputs and digests are functions of the seed, that every
generated source is a valid assignment once written out, that the checks
catch corrupted outputs, that tracing leaves the package as it found it, and
that ``BENCHMARK.json`` lists exactly the metrics the benchmark prints.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.locate()

import massfusion  # noqa: E402
import massfusion.cli  # noqa: E402,F401
from tracer import Tracer  # noqa: E402
from workloads import RULES, WORKLOADS, TrackingStream  # noqa: E402


def inputs(wl, count):
    for i in range(count):
        wl.prepare(i)
    if isinstance(wl, TrackingStream):
        return wl.constraints, [wl.episode(e) for e in range(count // wl.steps + 1)]
    return [wl.document(i) for i in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_digest(name):
    a, b, other = WORKLOADS[name](7), WORKLOADS[name](7), WORKLOADS[name](8)
    assert inputs(a, 24) == inputs(b, 24)
    assert inputs(a, 24) != inputs(other, 24)
    first = run.run_phase(a, massfusion, 0.01, 7)
    second = run.run_phase(b, massfusion, 0.01, 7)
    assert first.failed == 0 and first.problems == []
    assert len(first.views) == a.check_count
    assert first.digest() == second.digest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_sources_validate_after_rounding(name):
    wl = WORKLOADS[name](3)
    if isinstance(wl, TrackingStream):
        model = wl.start(massfusion).model
        tables = [t for e in range(wl.episodes) for t in (wl.episode(e)[0], *wl.episode(e)[1])]
        docs = [(model, tables)]
    else:
        docs = []
        for doc in inputs(wl, wl.pool):
            doc = json.loads(json.dumps(doc))  # as a scenario file would carry it
            model = massfusion.cli.scenario_from_dict(doc).model
            docs.append((model, doc["sources"]))
    for model, tables in docs:
        for table in tables:
            rounded = {k: round(v, 6) for k, v in table.items()}
            massfusion.validate_bba(massfusion.Bba(model, rounded))


def hyper_output():
    wl = WORKLOADS["hyper_scenarios"](5)
    doc = wl.document(0)
    return wl, doc, wl.request(massfusion, 0)


def corrupt(text, edit):
    out = json.loads(text)
    edit(out["rules"])
    return json.dumps(out)


def test_checks_pass_a_real_report():
    wl, doc, text = hyper_output()
    assert wl.check(0, text)[1] == []
    assert wl.cross_check(0, text) == []


@pytest.mark.parametrize("edit", [
    lambda r: r["pcr5"]["masses"].update({k: -v for k, v in list(r["pcr5"]["masses"].items())[:1]}),
    lambda r: r["yager"].update(sum=r["yager"]["sum"] * 0.9,
                                masses={k: v * 0.9 for k, v in r["yager"]["masses"].items()}),
    lambda r: r["wao"].update(sum_deficit=0.25),
    lambda r: r["minc"].update(error="something went wrong"),
    lambda r: r.pop("pcr3"),
], ids=["negative", "unnormalized", "wao-deficit", "error", "missing"])
def test_corrupted_report_is_caught(edit):
    wl, doc, text = hyper_output()
    assert wl.check(0, corrupt(text, edit))[1]


def test_cross_check_catches_moved_mass():
    wl, doc, text = hyper_output()

    def move(rules):
        masses = rules["conjunctive"]["masses"]
        a, b = sorted(masses)[:2]
        masses[a] += 1e-6
        masses[b] -= 1e-6

    bad = corrupt(text, move)
    assert wl.check(0, bad)[1] == []  # still a valid assignment
    assert wl.cross_check(0, bad)


def test_corrupted_tracking_step_is_caught():
    wl = TrackingStream(4)
    state = wl.start(massfusion)
    priors, obs, results = wl.request(state, 0)
    assert wl.check(0, (priors, obs, results))[1] == []
    assert wl.cross_check(0, (priors, obs, results)) == []
    halved = massfusion.Bba(state.model, {e: v / 2 for e, v in results["pcr4"].items()})
    assert wl.check(0, (priors, obs, dict(results, pcr4=halved)))[1]
    assert wl.check(0, (priors, obs, dict(results, dempster=None)))[1]  # no total conflict
    assert wl.cross_check(0, (priors, obs, dict(results, pcr5=results["minc"])))


def test_tracer_restores_the_package():
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name.startswith("massfusion")}
    classes = [massfusion.Model, massfusion.Bba, massfusion.MassMatrix, massfusion.RawConjunctive,
               massfusion.Diagnostics]
    methods = [dict(vars(c)) for c in classes]
    rules = dict(massfusion.RULES)
    tracer = Tracer()
    tracer.install(massfusion)
    wl = WORKLOADS["hyper_scenarios"](1)
    wl.prepare(1)
    tracer.begin(1)
    wl.request(massfusion, 1)
    counts = tracer.end()
    tracer.uninstall()
    assert counts["cli.run_ms"] > 0 and counts["rules_core.conjunctive_calls"] > 0
    assert counts["lattice.reduce_misses"] <= counts["lattice.reduce_calls"]
    # three sources in conflict: run_scenario's k, pcr5, dsm_hybrid and pcr2
    assert counts["bba.ledger_calls"] == 4
    after = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name.startswith("massfusion")}
    assert all(before[name] == after[name] for name in before)
    assert methods == [dict(vars(c)) for c in classes]
    assert rules == massfusion.RULES


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert run.RULE_NAMES == RULES == massfusion.RULE_ORDER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tracking_stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
