import contextlib
import copy
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from massfusion import (
    RULE_ORDER, Diagnostics, FallbackEvent, MassMatrix, RedistributionRecord, RuleOptions, _transfer, diagnostics,
)
from massfusion.cli import (
    RuleRun, _dump, compare_rules, load_scenario, main, render_report, run_scenario, sequential_fusion,
)

ZADEH = {
    "frame": ["A", "B", "C"],
    "model": {"kind": "shafer"},
    "sources": [{"A": 0.9, "C": 0.1}, {"B": 0.9, "C": 0.1}],
}

TARGET_STREAM = {
    "frame": ["A", "B"],
    "model": {"kind": "shafer"},
    "sources": [{"A": 1.0}],
    "stream": [{"A": 0.1, "B": 0.9}, {"A": 0.4, "B": 0.6}],
}


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_table(scenario_doc, tmp_path, capsys, *args):
    path = write(tmp_path, scenario_doc)
    code = main([path, *args])
    return code, capsys.readouterr().out


def test_zadeh_table_holds_every_rule(tmp_path, capsys):
    code, out = run_table(ZADEH, tmp_path, capsys, "--all")
    assert code == 0
    assert "total conflict k = 0.990000" in out
    for needle in ("dempster", "pcr5", "minc"):
        assert needle in out
    # a few spot values from the grid
    assert "0.486000" in out      # pcr5 on A and B
    assert "0.990000" in out      # smets on the empty set / yager on ignorance
    assert "0.405000" in out      # minc on A and B
    assert "0.109000" in out      # pcr1 on C


def test_single_source_is_echoed(tmp_path, capsys):
    doc = {"frame": ["A", "B"], "model": {"kind": "shafer"},
           "sources": [{"A": 0.6, "B": 0.4}]}
    code, out = run_table(doc, tmp_path, capsys, "--rule", "dempster")
    assert code == 0
    assert "0.600000" in out and "0.400000" in out


def test_a_single_source_is_fused_under_the_fusion_model(tmp_path, capsys):
    """A lone source's empty focal element is conflict that each redistributing rule moves."""
    doc = {"frame": ["A", "B", "C"], "model": {"kind": "shafer"},
           "sources": [{"A": 0.6, "B|C": 0.4}], "dynamic_empty": ["A"]}
    code, out = run_table(doc, tmp_path, capsys, "--all", "--pcr5", "approx", "--format", "machine")
    assert code == 0
    rules = json.loads(out)["rules"]
    for name in ("dempster", "yager", "dsm_hybrid", "minc", "pcr1", "pcr2", "pcr3", "pcr4", "pcr5"):
        assert rules[name]["masses"] == {"B|C": 1.0}, name
    assert "order" not in rules["pcr5"]
    assert rules["smets"]["masses"] == {"∅": 0.6, "B|C": 0.4}
    assert rules["wao"]["masses"] == {"B|C": 0.64} and rules["wao"]["sum_deficit"] == 0.36
    # no product to combine: the source itself, under the fusion model
    for name in ("conjunctive", "disjunctive", "dubois_prade"):
        assert rules[name]["masses"] == {"A": 0.6, "B|C": 0.4}, name
    doc = dict(doc, sources=[{"A": 0.3, "B": 0.3, "C": 0.4}], dynamic_empty=["A", "B"])
    code, out = run_table(doc, tmp_path, capsys, "--rule", "dubois_prade", "--format", "machine")
    assert json.loads(out)["rules"]["dubois_prade"]["masses"] == {"A": 0.3, "B": 0.3, "C": 0.4}


def test_a_single_source_reports_its_conflict(tmp_path, capsys):
    """A lone source's empty focal elements are its conflict k, in both output formats."""
    doc = {"frame": ["A", "B", "C"], "model": {"kind": "shafer"},
           "sources": [{"A": 0.6, "B|C": 0.4}], "dynamic_empty": ["A"]}
    code, out = run_table(doc, tmp_path, capsys, "--all", "--format", "machine")
    assert code == 0 and json.loads(out)["k"] == 0.6
    code, out = run_table(doc, tmp_path, capsys, "--all")
    assert code == 0 and "total conflict k = 0.600000" in out.splitlines()


def test_malformed_mass_sum_exits_2(tmp_path, capsys):
    doc = {"frame": ["A", "B"], "model": {"kind": "shafer"},
           "sources": [{"A": 0.5, "B": 0.4}]}
    path = write(tmp_path, doc)
    assert main([path]) == 2
    err = capsys.readouterr().err
    assert "source 1" in err and "0.9" in err


def test_invalid_json_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"frame": ["A",]', encoding="utf-8")
    assert main([str(path)]) == 2
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize("raw, needle", [
    (b'{"frame": ["\xff"]}', "utf-8"),
    (b'{"frame": ["A"], "sources": [{"A": 1' + b"0" * 5000 + b'}]}', "digits"),
    (b"[" * 100_000 + b"]" * 100_000, "recursion"),
], ids=["bad-utf8", "integer-of-5001-digits", "deep-nesting"])
def test_unreadable_json_exits_2_with_a_message(tmp_path, capsys, raw, needle):
    path = tmp_path / "unreadable.json"
    path.write_bytes(raw)
    assert main([str(path), "--all"]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


def test_unknown_rule_exits_2(tmp_path, capsys):
    path = write(tmp_path, dict(ZADEH, rules=["pcr9"]))
    assert main([path]) == 2
    assert "pcr9" in capsys.readouterr().err


def test_total_conflict_exits_3(tmp_path, capsys):
    doc = {"frame": ["A", "B"], "model": {"kind": "shafer"},
           "sources": [{"A": 1.0}, {"B": 1.0}]}
    path = write(tmp_path, doc)
    assert main([path, "--rule", "dempster"]) == 3
    assert "total conflict" in capsys.readouterr().out


def test_sequential_target_identification(tmp_path):
    scenario = load_scenario(write(tmp_path, dict(TARGET_STREAM, rules=["minc", "pcr5", "pcr1"])))
    report = sequential_fusion(scenario)
    assert len(report.steps) == 2
    by_name = {run.name: run for run in report.steps[0]}
    assert by_name["minc"].bba["A"] == pytest.approx(1.0)
    assert by_name["pcr5"].bba["A"] == pytest.approx(0.573684, abs=5e-5)
    final = {run.name: run for run in report.steps[1]}
    assert final["minc"].bba["A"] == pytest.approx(1.0)
    assert final["pcr5"].bba["A"] == pytest.approx(0.480268, abs=5e-5)
    assert final["pcr5"].bba["B"] == pytest.approx(0.519732, abs=5e-5)
    assert final["pcr1"].bba["A"] == pytest.approx(0.496203, abs=5e-5)


def test_sequential_cli_output(tmp_path, capsys):
    code, out = run_table(TARGET_STREAM, tmp_path, capsys, "--sequential", "--rule", "pcr5")
    assert code == 0
    assert "step 1" in out and "step 2" in out
    assert "0.480268" in out


def test_sequential_without_stream_exits_2(tmp_path, capsys):
    code, _ = run_table(ZADEH, tmp_path, capsys, "--sequential")
    assert code == 2


def test_sequential_steps_conserve_normalization(tmp_path):
    scenario = load_scenario(write(tmp_path, dict(
        TARGET_STREAM, rules=["minc", "pcr1", "pcr3", "pcr4", "pcr5", "dempster"])))
    report = sequential_fusion(scenario)
    for step in report.steps:
        for run in step:
            if run.error is None:
                assert run.bba.total() == pytest.approx(1.0, abs=1e-9)


def test_twelve_sequential_steps_stay_normalized_for_every_rule(tmp_path):
    scenario = load_scenario(write(tmp_path, dict(TARGET_STREAM, stream=TARGET_STREAM["stream"] * 6)),
                             {"rules": list(RULE_ORDER)})
    report = sequential_fusion(scenario)
    assert len(report.steps) == 12 and not report.failed()
    for step in report.steps:
        for run in step:
            assert run.bba.total() == pytest.approx(1.0, abs=1e-9), run.name
            # a fed-back result is the exact value of its floats: dyadic rationals
            assert all(q.denominator & (q.denominator - 1) == 0 for q in run.bba.fractions().values())


def test_sequential_combines_multiple_initial_sources_first(tmp_path):
    doc = {"frame": ["A", "B"], "model": {"kind": "shafer"},
           "sources": [{"A": 1.0}, {"A": 0.1, "B": 0.9}],
           "stream": [{"A": 0.4, "B": 0.6}], "rules": ["pcr5"]}
    report = sequential_fusion(load_scenario(write(tmp_path, doc)))
    run = report.steps[0][0]
    assert run.bba["A"] == pytest.approx(0.480268, abs=5e-5)


def test_static_wao_reports_no_deficit_when_no_column_is_empty(tmp_path, capsys):
    # fed-back step results are exact floats, so a step's inputs need not sum to one as rationals
    doc = {"frame": ["A", "B", "C"], "model": {"kind": "hybrid", "empty": ["A&B"]},
           "sources": [{"A": 0.5, "B|C": 0.3, "A|B|C": 0.2}, {"B": 0.6, "A&C": 0.1, "A|C": 0.3}],
           "stream": [{"A": 0.9, "B": 0.1}, {"B": 1.0}, {"C": 0.7, "A|B": 0.3}]}
    code, out = run_table(doc, tmp_path, capsys, "--sequential", "--rule", "wao")
    assert code == 0 and out.count("-- step") == 3
    assert "sum below" not in out
    code, out = run_table(doc, tmp_path, capsys, "--sequential", "--rule", "wao", "--format", "machine")
    assert code == 0 and "sum_deficit" not in json.loads(out)["rules"]["wao"]


def test_sequential_dempster_aborts_on_total_conflict(tmp_path):
    doc = {"frame": ["A", "B"], "model": {"kind": "shafer"},
           "sources": [{"A": 1.0}], "stream": [{"B": 1.0}, {"A": 0.5, "B": 0.5}]}
    scenario = load_scenario(write(tmp_path, doc))
    report = sequential_fusion(scenario)
    dempster_runs = [run for step in report.steps for run in step if run.name == "dempster"]
    assert any(run.error for run in dempster_runs)
    assert report.failed()


def test_compare_flags_coinciding_rules(tmp_path):
    bayes = {"frame": ["A", "B", "C"], "model": {"kind": "shafer"},
             "sources": [{"A": 0.6, "B": 0.3, "C": 0.1}, {"A": 0.4, "B": 0.4, "C": 0.2}]}
    report = compare_rules(load_scenario(write(tmp_path, bayes)))
    assert ("minc", "pcr4") in report.coincident or ("pcr4", "minc") in report.coincident


def test_compare_flags_dempster_minc_agreement(tmp_path):
    pair = {"frame": ["A", "B"], "model": {"kind": "shafer"},
            "sources": [{"A": 0.7, "B": 0.1, "A|B": 0.2}, {"A": 0.5, "B": 0.4, "A|B": 0.1}]}
    report = compare_rules(load_scenario(write(tmp_path, pair)))
    assert ("dempster", "minc") in report.coincident


def test_compare_on_free_model_equates_conjunctive_and_pcr(tmp_path):
    doc = {"frame": ["A", "B", "C"], "model": {"kind": "free"},
           "sources": [{"A": 0.5, "B&C": 0.2, "A|B": 0.3}, {"A&B": 0.4, "C": 0.6}]}
    report = compare_rules(load_scenario(write(tmp_path, doc)))
    pairs = set(report.coincident)
    for rule in ("pcr1", "pcr2", "pcr3", "pcr4", "pcr5"):
        assert ("conjunctive", rule) in pairs or (rule, "conjunctive") in pairs


def test_output_is_reproducible(tmp_path, capsys):
    path = write(tmp_path, ZADEH)
    main([path, "--all"])
    first = capsys.readouterr().out
    main([path, "--all"])
    second = capsys.readouterr().out
    assert first == second


def test_machine_format_roundtrips(tmp_path, capsys):
    code, out = run_table(ZADEH, tmp_path, capsys, "--all", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == pytest.approx(0.99)
    assert doc["rules"]["pcr5"]["masses"]["C"] == pytest.approx(0.028)
    assert doc["rules"]["dempster"]["masses"]["C"] == pytest.approx(1.0)
    assert doc["rules"]["minc"]["sum"] == pytest.approx(1.0)


def test_rule_variant_flags(tmp_path, capsys):
    three = {"frame": ["A", "B"], "model": {"kind": "shafer"},
             "sources": [{"A": 0.6, "B": 0.3, "A|B": 0.1},
                          {"A": 0.2, "B": 0.3, "A|B": 0.5},
                          {"A": 0.4, "B": 0.4, "A|B": 0.2}]}
    path = write(tmp_path, three)
    assert main([path, "--rule", "pcr5", "--pcr5", "approx", "--order", "1,2,3",
                 "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rules"]["pcr5"]["masses"]["A"] == pytest.approx(0.536668, abs=5e-5)
    assert doc["rules"]["pcr5"]["order"] == [1, 2, 3]
    assert main([path, "--rule", "minc", "--minc-version", "b"]) == 0
    capsys.readouterr()


def test_sequential_order_applies_to_the_initial_sources_only(tmp_path, capsys):
    three = {"frame": ["A", "B"], "model": {"kind": "shafer"},
             "sources": [{"A": 0.6, "B": 0.3, "A|B": 0.1},
                          {"A": 0.2, "B": 0.3, "A|B": 0.5},
                          {"A": 0.4, "B": 0.4, "A|B": 0.2}],
             "stream": [{"A": 0.3, "B": 0.7}]}
    path = write(tmp_path, three)
    flags = ["--rule", "pcr5", "--pcr5", "approx", "--order", "3,2,1", "--format", "machine"]
    assert main([path, *flags]) == 0
    initial = json.loads(capsys.readouterr().out)["rules"]["pcr5"]
    assert initial["order"] == [3, 2, 1]
    assert main([path, "--sequential", *flags]) == 0
    step = json.loads(capsys.readouterr().out)["rules"]["pcr5"]
    # a step fuses (prior, observation): for two sources the approximation is the exact pair rule
    pair = {"frame": ["A", "B"], "model": {"kind": "shafer"},
            "sources": [initial["masses"], three["stream"][0]]}
    assert main([write(tmp_path, pair, "pair.json"), "--rule", "pcr5", "--format", "machine"]) == 0
    assert step["masses"] == pytest.approx(json.loads(capsys.readouterr().out)["rules"]["pcr5"]["masses"])
    assert step["order"] == [1, 2]


def test_dynamic_emptiness_in_scenario(tmp_path, capsys):
    doc = {"frame": ["A", "B", "C"], "model": {"kind": "shafer"},
           "sources": [{"A": 0.3, "B": 0.4, "C": 0.3}, {"A": 0.5, "B": 0.1, "C": 0.4}],
           "dynamic_empty": ["B"]}
    code, out = run_table(doc, tmp_path, capsys, "--rule", "pcr1", "--rule", "wao")
    assert code == 0
    assert "0.539333" in out          # pcr1 keeps normalization
    assert "0.442000" in out          # static averaging loses the dead column
    assert "sum below one" in out


def test_deeply_nested_expressions_parse_in_every_field(tmp_path, capsys):
    def deep(text):
        return "(" * 5000 + text + ")" * 5000

    flat = {"frame": ["A", "B", "C"], "model": {"kind": "hybrid", "empty": ["A&B"]},
            "sources": [{"A": 0.6, "C": 0.4}, {"B": 0.7, "A|C": 0.3}], "dynamic_empty": ["C"]}
    nested = dict(flat, model={"kind": "hybrid", "empty": [deep("A&B")]},
                  sources=[{deep("A"): 0.6, "C": 0.4}, {"B": 0.7, deep("A|C"): 0.3}],
                  dynamic_empty=[deep("C")])
    outputs = []
    for doc in (nested, flat):
        assert main([write(tmp_path, doc), "--all"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_table_keeps_the_deficit_line_when_no_focal_element_is_left(tmp_path, capsys):
    doc = {"frame": ["A", "B", "C"], "model": {"kind": "shafer"},
           "sources": [{"A": 1.0}, {"B": 1.0}], "dynamic_empty": ["A", "B"]}
    code, out = run_table(doc, tmp_path, capsys, "--rule", "wao")
    assert code == 0
    assert "! wao: sum below one by 1.000000" in out
    assert "(no results)" not in out


def test_rule_runs_share_no_collector():
    a, b = RuleRun("pcr5"), RuleRun("pcr5")
    assert a.diag is not b.diag
    a.diag.record("X", "A", 1)
    assert b.diag.records == []


JSON_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["∅", "θ0", 'a "quoted" A|B', "two\nlines", ""]))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), JSON_TEXT,
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]))
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=30)


@given(JSON_DOCUMENTS)
@example({})
@example({"rules": {"pcr5": {"masses": {"A": 0.5, "θ0": -0.0}, "order": [2, 1]}}, "coincident": []})
@settings(max_examples=300, deadline=None)
def test_machine_writer_matches_the_indenting_json_encoder(doc):
    assert _dump(doc, "\n") == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


def test_precision_flag(tmp_path, capsys):
    code, out = run_table(ZADEH, tmp_path, capsys, "--rule", "pcr5", "--precision", "3")
    assert code == 0
    assert "0.486" in out and "0.486000" not in out


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code


@pytest.mark.parametrize("doc, args, needle", [
    (dict(ZADEH, sources=[{"A": float("nan"), "C": 0.1}, {"B": 0.9, "C": 0.1}]), [], "nan"),
    (dict(ZADEH, sources=[{"A": float("inf"), "C": 0.1}, {"B": 0.9, "C": 0.1}]), [], "inf"),
    (dict(ZADEH, sources=[{"A": "most", "C": 0.1}, {"B": 0.9, "C": 0.1}]), [], "most"),
    (dict(ZADEH, sources={"first": {"A": 1.0}}), [], "sources"),
    (dict(ZADEH, stream=[["A", 1.0]]), ["--sequential"], "stream"),
    (dict(ZADEH, model=["shafer"]), [], "model"),
    (dict(ZADEH, model={"kind": "shafer", "world": "flat"}), [], "world"),
    (dict(ZADEH, options=[["pcr5", "approx"]]), [], "options"),
    (ZADEH, ["--order", "x"], "--order"),
    (ZADEH, ["--order", "1,1"], "order"),
    (ZADEH, ["--precision", "-1"], "--precision"),
    (ZADEH, ["--precision", "99999999999"], "--precision: expected an integer from 0 to 100"),
    (dict(ZADEH, frame=5), [], "frame"),
    (dict(ZADEH, frame=[1, 2]), [], "frame"),
    (dict(ZADEH, model={"kind": "hybrid", "empty": 5}), [], "empty"),
    (dict(ZADEH, dynamic_empty=5), [], "dynamic_empty"),
    (dict(ZADEH, model={"kind": "shafer", "theta0": "no"}), [], "theta0"),
    (dict(ZADEH, rules=5), [], "rules"),
    (dict(ZADEH, sources=[{"A": True}, {"B": 0.9, "C": 0.1}]), [], "True"),
    (dict(ZADEH, sources=[{"A": "0.5", "B": "0.5"}, {"B": 0.9, "C": 0.1}]), [], "0.5"),
    (dict(ZADEH, options={"order": {}}), [], "order"),
    (dict(ZADEH, options={"order": [True, 2]}), [], "order"),
    (dict(ZADEH, sources=[{"A": 10 ** 400}, {"B": 0.9, "C": 0.1}]), ["--pcr5", "approx"], "finite"),
    (dict(ZADEH, stream=[{"A": 0.5, "B": 0.5}], dynamic_empty=["C"]), ["--sequential"], "dynamic_empty"),
    (TARGET_STREAM, ["--sequential", "--compare"], "not allowed with"),
    (ZADEH, ["--rule", "pcr5", "--all"], "--rule: not allowed with argument --all"),
    (ZADEH, ["--rule", "pcr5", "--compare"], "--rule: not allowed with argument --compare"),
], ids=["nan-mass", "inf-mass", "text-mass", "sources-object", "stream-of-lists",
        "model-list", "unknown-world", "options-list", "order-text", "order-repeated", "negative-precision",
        "huge-precision",
        "frame-number", "frame-of-numbers", "empty-number", "dynamic-empty-number", "theta0-text",
        "rules-number", "boolean-mass", "numeric-text-mass", "order-object", "order-of-booleans",
        "huge-integer-mass", "sequential-dynamic-empty", "sequential-with-compare",
        "rule-with-all", "rule-with-compare"])
def test_malformed_input_exits_2_with_a_message(tmp_path, capsys, doc, args, needle):
    assert exit_code([write(tmp_path, doc), *args]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


@pytest.mark.parametrize("field, flags", [
    ({"rules": "pcr5"}, ["--rule", "pcr5"]),
    ({"rules": "pcr5"}, ["--all"]),
    ({"rules": ["nope"]}, ["--all"]),
    ({"options": {"minc_version": "c"}}, ["--minc-version", "a"]),
    ({"options": {"order": [5, 6]}}, ["--order", "2,1"]),
    ({"options": {"minc_verison": "b"}}, ["--rule", "minc", "--minc-version", "b"]),
], ids=["rules-text-with-rule", "rules-text-with-all", "unknown-rule-with-all", "minc-version-with-flag",
        "order-with-flag", "unknown-option-with-flag"])
def test_a_flag_does_not_hide_a_malformed_field(tmp_path, capsys, field, flags):
    """A flag overrides a scenario field only after the field is checked as written."""
    path = write(tmp_path, dict(ZADEH, **field))
    assert exit_code([path]) == 2
    alone = capsys.readouterr().err
    assert alone.startswith(f"error: {path}: ")
    assert exit_code([path, *flags]) == 2
    assert capsys.readouterr().err == alone


SEVEN = [chr(ord("A") + i) for i in range(7)]


@pytest.mark.parametrize("doc, message", [
    (dict(ZADEH, model={"kind": "hybrid", "empty": ["A&B", "Z"]}),
     "model.empty entry 2: unknown label 'Z' (at offset 0)"),
    (dict(ZADEH, model={"kind": "hybrid", "empty": ["A&"]}),
     "model.empty entry 1: expected a label or '(' (at offset 2)"),
    (dict(ZADEH, dynamic_empty=["C", "B&Z"]), "dynamic_empty entry 2: unknown label 'Z' (at offset 2)"),
    (dict(ZADEH, dynamic_empty=["(A|B"]), "dynamic_empty entry 1: expected ')' (at offset 4)"),
    (dict(ZADEH, frame=SEVEN, model={"kind": "free"}),
     "model: hyper-power-set models are limited to 6 labels"),
    (dict(ZADEH, frame=SEVEN, dynamic_empty=["C"]),
     "dynamic_empty needs a frame of at most 6 labels: hyper-power-set models are limited to 6 labels"),
    (dict(ZADEH, frame=["A", "A"]), "frame: frame labels must be distinct"),
    # the parser splits on every whitespace character, so the frame refuses labels holding one
    (dict(ZADEH, frame=["A\u00a0B", "C"], sources=[{"A\u00a0B": 1.0}]), r"frame: invalid label 'A\xa0B'"),
    # ∅ and θ0 name the special elements; as labels they would print under the same names
    (dict(frame=["∅", "A"], model={"kind": "shafer", "world": "open"},
          sources=[{"∅": 0.6, "A": 0.4}, {"A": 0.7, "∅": 0.3}]), "frame: invalid label '∅'"),
    (dict(ZADEH, frame=["A", "θ0"]), "frame: invalid label 'θ0'"),
    ({k: v for k, v in ZADEH.items() if k != "frame"}, "missing field 'frame'"),
    (dict(ZADEH, model={"kind": "flat"}), "model: unknown model kind 'flat'"),
    # the rule variants and their values, as registry.VARIANTS declares them
    (dict(ZADEH, options={"minc_version": "c"}), "minc_version must be 'a' or 'b'"),
    (dict(ZADEH, options={"wao_mode": "mean"}), "wao_mode must be 'static' or 'dynamic'"),
    (dict(ZADEH, options={"pcr5": "fast"}), "pcr5 must be 'exact' or 'approx'"),
    # a mass key that is exactly θ0 or ∅ reads as that element, θ0 only where the model enables it
    (dict(ZADEH, sources=[{"θ0": 0.1, "A": 0.9}, {"B": 0.9, "C": 0.1}]),
     "source 1: mass on 'θ0' needs a model with theta0 enabled"),
    (dict(TARGET_STREAM, stream=[{"A": 0.5, "B": 0.5}, {"θ0": 0.5, "B": 0.5}]),
     "stream entry 2: mass on 'θ0' needs a model with theta0 enabled"),
    (dict(ZADEH, sources=[{"A": 0.9, "C": 0.1}, {"∅": 0.1, "B": 0.9}]), "source 2: mass on empty element ∅"),
    # constraints and expressions keep refusing both names
    (dict(ZADEH, model={"kind": "hybrid", "empty": ["θ0"], "theta0": True}),
     "model.empty entry 1: unknown label 'θ0' (at offset 0)"),
    (dict(ZADEH, model={"kind": "shafer", "world": "open"}, dynamic_empty=["∅"]),
     "dynamic_empty entry 1: unknown label '∅' (at offset 0)"),
    (dict(ZADEH, model={"kind": "shafer", "world": "open", "theta0": True},
          sources=[{"A|θ0": 0.1, "A": 0.9}, {"B": 0.9, "C": 0.1}]), "source 1: unknown label 'θ0' (at offset 2)"),
    (dict(ZADEH, model={"kind": "shafer", "world": "open"}, sources=[{"∅|A": 1.0}, {"B": 1.0}]),
     "source 1: unknown label '∅' (at offset 0)"),
    # a field the loader does not read is refused, so a misspelt one cannot pass for its default
    (dict(ZADEH, options={"minc_verison": "b"}), "options: unknown field 'minc_verison'"),
    (dict(frame=["A", "B"], model={"kind": "hybrid", "constraint": ["A&B"]},
          sources=[{"A": 0.5, "B": 0.5}, {"A&B": 1}]), "model: unknown field 'constraint'"),
    (dict(ZADEH, srcs=ZADEH["sources"]), "scenario: unknown field 'srcs'"),
], ids=["empty-label", "empty-syntax", "dynamic-label", "dynamic-syntax", "free-seven-labels",
        "dynamic-seven-labels", "repeated-label", "no-break-space-label", "empty-set-label",
        "theta0-label", "no-frame", "unknown-kind", "minc-version", "wao-mode", "pcr5-variant",
        "theta0-key-disabled", "theta0-stream-key-disabled", "empty-set-key-closed-world",
        "theta0-constraint", "empty-set-dynamic-constraint", "theta0-in-expression", "empty-set-in-expression",
        "unknown-option", "unknown-model-field", "unknown-scenario-field"])
def test_constraint_errors_name_the_scenario_and_the_field(tmp_path, capsys, doc, message):
    path = write(tmp_path, doc)
    assert exit_code([path, "--all"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_machine_keys_for_theta0_and_the_empty_set_read_back(tmp_path, capsys):
    """Masses the machine format writes under ``θ0`` and ``∅`` are a valid source again."""
    model = {"kind": "shafer", "world": "open", "theta0": True}
    doc = {"frame": ["A", "B"], "model": model, "rules": ["smets"],
           "sources": [{"θ0": 0.25, "A": 0.75}, {"∅": 0.2, "B": 0.3, "θ0": 0.5}]}
    code, out = run_table(doc, tmp_path, capsys, "--format", "machine")
    masses = json.loads(out)["rules"]["smets"]["masses"]
    assert code == 0 and set(masses) == {"θ0", "∅", "A", "B"}
    code, out = run_table(dict(doc, sources=[masses], rules=["conjunctive"]), tmp_path, capsys, "--format", "machine")
    assert code == 0 and json.loads(out)["rules"]["conjunctive"]["masses"] == masses


def test_a_rule_named_twice_runs_once(tmp_path, capsys):
    code, out = run_table(ZADEH, tmp_path, capsys, "--rule", "pcr5", "--rule", "dempster", "--rule", "pcr5")
    assert code == 0
    assert out.splitlines()[3].split() == ["pcr5", "dempster"]
    twice = dict(ZADEH, rules=["pcr5", "minc", "pcr5"])
    code, out = run_table(twice, tmp_path, capsys, "--format", "machine")
    assert code == 0
    assert list(json.loads(out)["rules"]) == ["minc", "pcr5"]  # the machine format sorts its keys
    assert load_scenario(write(tmp_path, twice)).rules == ["pcr5", "minc"]


def test_compare_leaves_the_scenario_rules_alone(tmp_path):
    scenario = load_scenario(write(tmp_path, dict(ZADEH, rules=["pcr5"])))
    report = compare_rules(scenario)
    assert scenario.rules == ["pcr5"]
    assert len(report.runs) > 1


SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_shipped_scenarios_run(path, capsys):
    assert main([str(path), "--all", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["rules"]
    assert main([str(path), "--compare"]) == 0
    if "stream" in json.loads(path.read_text(encoding="utf-8")):
        assert main([str(path), "--sequential"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
@pytest.mark.parametrize("options", [RuleOptions(), RuleOptions(minc_version="b", wao_mode="dynamic",
                                                                pcr5_variant="approx")], ids=["default", "variants"])
def test_every_result_element_reads_back_from_its_name(path, options):
    scenario = load_scenario(str(path))
    report = run_scenario(scenario._replace(rules=list(RULE_ORDER), options=options))
    for run in report.runs:
        for e in run.bba or ():
            assert scenario.fusion_model.canonical(str(e)) == e, (run.name, str(e))


def test_machine_format_writes_a_failed_rule_as_its_error(tmp_path, capsys):
    doc = dict(ZADEH, sources=[{"A": 1.0}, {"B": 1.0}])
    code, out = run_table(doc, tmp_path, capsys, "--all", "--format", "machine")
    rules = json.loads(out)["rules"]
    assert code == 3
    assert rules["dempster"] == {"error": "total conflict k=1.0, normalization impossible"}
    assert all("masses" in entry for name, entry in rules.items() if name != "dempster")


def test_machine_format_times_every_rule(tmp_path, capsys):
    code, out = run_table(ZADEH, tmp_path, capsys, "--all", "--timing", "--format", "machine")
    rules = json.loads(out)["rules"]
    assert code == 0 and list(rules) == sorted(RULE_ORDER)
    assert all(isinstance(entry["seconds"], float) and entry["seconds"] >= 0 for entry in rules.values())


GOLDEN = Path(__file__).resolve().parent / "golden"
MACHINE = ["--format", "machine"]
GOLDEN_FLAGS = {
    "all": ["--all", *MACHINE],
    "compare": ["--compare", *MACHINE],
    "pcr5-approx": ["--pcr5", "approx", "--all", *MACHINE],
    "minc-b-wao-dynamic": ["--all", "--minc-version", "b", "--wao-mode", "dynamic", *MACHINE],
    "sequential": ["--sequential", "--all", *MACHINE],
    "table-all": ["--all"],
    "table-compare": ["--compare"],
    "table-sequential": ["--sequential", "--all"],
}
GOLDEN_RUNS = [(path.stem, run) for path in SCENARIOS for run in GOLDEN_FLAGS
               if "sequential" not in run or "stream" in json.loads(path.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("stem, run", GOLDEN_RUNS, ids=[f"{stem}-{run}" for stem, run in GOLDEN_RUNS])
def test_shipped_scenario_output_matches_its_snapshot(stem, run, monkeypatch, capsys):
    """``massfusion scenarios/<stem>.json <flags>``, byte for byte."""
    monkeypatch.chdir(GOLDEN.parent.parent)  # the report names the scenario path as given
    assert main([f"scenarios/{stem}.json", *GOLDEN_FLAGS[run]]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{stem}.{run}.txt").read_bytes()


LAZY_RUNS = {"all": {}, "pcr5-approx": {"pcr5": "approx"},
             "minc-b-wao-dynamic": {"minc_version": "b", "wao_mode": "dynamic"}}


def _no_fraction(*args):
    raise AssertionError("a Fraction was built while the rules ran")


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
@pytest.mark.parametrize("run", LAZY_RUNS)
def test_a_collector_builds_its_fractions_only_when_read(path, run, monkeypatch):
    """Rules hand the collector int pairs; its records read back as the same exact ``Fraction``s."""
    monkeypatch.chdir(GOLDEN.parent.parent)
    scenario = load_scenario(f"scenarios/{path.name}", {"rules": list(RULE_ORDER), **LAZY_RUNS[run]})
    handed = []

    def logged(method):
        original = getattr(Diagnostics, method)
        return lambda self, *args: handed.append((self, method, args)) or original(self, *args)

    for method in ("record", "fallback"):
        monkeypatch.setattr(Diagnostics, method, logged(method))
    with monkeypatch.context() as patched:
        patched.setattr(_transfer, "Fraction", _no_fraction)
        patched.setattr(diagnostics, "Fraction", _no_fraction)
        report = run_scenario(scenario)
    golden = GOLDEN / f"{path.stem}.{run}.txt"
    if golden.exists():
        assert (render_report(report, "machine") + "\n").encode("utf-8") == golden.read_bytes()
    assert handed or not report.k  # every scenario with conflict hands over amounts
    for rule in report.runs:
        records = [RedistributionRecord(*args[:2], Fraction(*args[2]), Fraction(*args[3]))
                   for diag, method, args in handed if diag is rule.diag and method == "record"]
        fallbacks = [FallbackEvent(*args[:3], Fraction(*args[3]))
                     for diag, method, args in handed if diag is rule.diag and method == "fallback"]
        assert (rule.diag.records, rule.diag.fallbacks) == (records, fallbacks)
        assert all(type(r.amount) is type(r.constant) is Fraction for r in rule.diag.records)
        assert all(type(f.amount) is Fraction for f in rule.diag.fallbacks)


def test_a_collector_takes_a_fraction_or_an_int_pair():
    diag = Diagnostics()
    diag.record("X", "A", Fraction(1, 3), Fraction(2))
    diag.record("X", "B", (2, 6), (4, 2))
    diag.fallback("X", "theta0", None, (1, 3))
    assert diag.records == [RedistributionRecord("X", "A", Fraction(1, 3), Fraction(2)),
                            RedistributionRecord("X", "B", Fraction(1, 3), Fraction(2))]
    diag.record("Y", "A", (1, 2))
    assert diag.records[-1] == RedistributionRecord("Y", "A", Fraction(1, 2), None)
    assert diag.fallbacks == [FallbackEvent("X", "theta0", None, Fraction(1, 3))]


def test_column_sums_are_computed_once_per_matrix_and_model(monkeypatch, capsys):
    calls = []
    original = MassMatrix._column_sums
    monkeypatch.setattr(MassMatrix, "_column_sums",
                        lambda self, model: calls.append(model) or original(self, model))
    path = Path(__file__).resolve().parent.parent / "scenarios" / "dynamic_alibi.json"
    assert main([str(path), "--all"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


# --- fuzzing main() ---------------------------------------------------------

FUZZ_BASES = [
    ZADEH,
    TARGET_STREAM,
    {"frame": ["A", "B", "C"], "model": {"kind": "hybrid", "empty": ["A&B"]},
     "sources": [{"A": 0.5, "B|C": 0.3, "A|B|C": 0.2}, {"B": 0.6, "A&C": 0.1, "A|C": 0.3},
                 {"A": 0.2, "B": 0.2, "C": 0.6}],
     "options": {"pcr5": "approx", "order": [3, 1, 2]}},
    {"frame": ["A", "B", "C"], "model": {"kind": "free", "theta0": True},
     "sources": [{"A": 0.5, "B&C": 0.2, "A|B": 0.3}, {"A&B": 0.4, "C": 0.6}],
     "dynamic_empty": ["A&B"], "rules": ["pcr5", "minc", "dsm_hybrid"]},
    # a stream under late emptiness: step results live on the fusion model, the stream on the base one
    dict(TARGET_STREAM, sources=[{"A": 0.7, "B": 0.3}, {"A": 0.2, "A|B": 0.8}], dynamic_empty=["B"]),
]

ODD_MASSES = st.sampled_from([
    10 ** 400, -(10 ** 400), 1e308, -1e308, 5e-324, -0.0, 0, -1, 2, float("nan"), float("inf"),
    True, None, "0.5", [], {},
])

ODD_VALUES = st.sampled_from([
    None, True, False, 0, -1, 1, 2, 10 ** 400, -(10 ** 400), 1e308, -0.0, 5e-324, float("nan"),
    float("inf"), "", "A", "Z", "A&", "(A", "A||B", "A B", ")", "θ0", "shafer", "hybrid", "open",
    "b", "dynamic", "approx", [], [1], ["A"], ["A", "A"], ["Z"], [[]], {}, {"A": 1.0}, {"Z": 1.0},
    {"A&": 1.0}, [{"A": 1.0}], [{"A": 0.5, "B": 0.5}], list("ABCDEFGHIJKLMNOPQ"), [3, 1, 2],
]).map(copy.deepcopy)  # later mutations edit the document in place

FIELDS = [("frame",), ("model",), ("model", "kind"), ("model", "empty"), ("model", "world"),
          ("model", "theta0"), ("sources",), ("sources", 0), ("stream",), ("dynamic_empty",),
          ("rules",), ("options",), ("options", "minc_version"), ("options", "wao_mode"),
          ("options", "pcr5"), ("options", "order")]

FLAGS = [[], ["--all"], ["--compare"], ["--sequential"], ["--pcr5", "approx"], ["--order", "2,1"],
         ["--order", "x"], ["--minc-version", "b"], ["--minc-version", "c"], ["--wao-mode", "dynamic"],
         ["--format", "machine"], ["--precision", "0"], ["--precision", "-1"], ["--rule", "pcr5"],
         ["--rule", "pcr9"], ["--timing"], ["--bogus"]]


def _set(doc, path, value):
    """Replace the value at ``path`` when the container holding it exists."""
    for key in path[:-1]:
        doc = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(doc, dict) or (isinstance(doc, list) and doc and isinstance(path[-1], int)):
        doc[path[-1]] = value


@st.composite
def fuzzed_runs(draw):
    """A small scenario with zero to three mutations, and a few command-line flags.

    Unmutated bases are valid, so with random flags they reach the rules.
    """
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        what = draw(st.sampled_from(["field", "mass", "key"]))
        tables = [t for key in ("sources", "stream") if isinstance(doc.get(key), list)
                  for t in doc[key] if isinstance(t, dict) and t]
        if what == "field" or not tables:
            _set(doc, draw(st.sampled_from(FIELDS)), draw(ODD_VALUES))
            continue
        table = draw(st.sampled_from(tables))
        key = draw(st.sampled_from(sorted(table)))
        if what == "mass":
            table[key] = draw(ODD_MASSES)
        else:
            table[draw(st.sampled_from(["Z", "A&", "(A|B", "", "A|Z", "A&B&C", "θ0"]))] = table.pop(key)
    flags = draw(st.lists(st.sampled_from(FLAGS), max_size=3))
    return doc, [arg for flag in flags for arg in flag]


@given(fuzzed_runs())
@example(run=(FUZZ_BASES[-1], ["--sequential"]))  # every mutation of it may miss this path
# its order names three sources, and every sequential step fuses two
@example(run=(dict(FUZZ_BASES[2], stream=[{"A": 0.4, "B|C": 0.6}]), ["--sequential"]))
@settings(max_examples=200, deadline=None)
def test_fuzzed_scenarios_and_flags_exit_0_2_or_3(tmp_path_factory, run):
    doc, args = run
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert exit_code([str(path), *args]) in (0, 2, 3)
