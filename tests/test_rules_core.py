import contextlib
import gc
import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import or_
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from massfusion import (
    Bba,
    Diagnostics,
    FREE,
    Frame,
    HYBRID,
    MassMatrix,
    Model,
    NegativeMassError,
    RULES,
    RuleOptions,
    SHAFER,
    TotalConflictError,
    column_sum,
    conflict_ledger,
    conjunctive,
    dempster,
    disjunctive,
    dsm_hybrid,
    minc,
    pcr1,
    pcr2,
    pcr3,
    pcr4,
    pcr5_approximate,
    pcr5_multi,
    pcr5_pair,
    run_rule,
    shafer_as_hybrid,
    smets,
    vacuous_bba,
    wao,
    weighted_operator,
    yager,
)
from massfusion import _transfer, bba, lattice, rules_classic, rules_core, rules_pcr
from massfusion.lattice import CLOSED, MAX_HYPER_LABELS, MAX_POWERSET_LABELS, OPEN

from massfusion import dubois_prade, to_fraction
from massfusion.cli import scenario_from_dict, sequential_fusion
from massfusion.kernels import absorb_masks, intersect_canon, union_canon
from massfusion._transfer import redistribute
from massfusion.rules_core import _finish

from conftest import assert_bba, exact_factors, exact_matrices, matrix, random_shafer_case, union_of
from oracles import (
    conflict_ledger_reference,
    conjunctive_reference,
    disjunctive_reference,
    dubois_prade_combine_reference,
    fraction_fold_reference,
    pcr5_reference,
)


@pytest.fixture
def two_theta_pair():
    frame = Frame(["t1", "t2"])
    shafer = Model(frame, SHAFER)
    free = Model(frame, FREE)
    tables = ({"t1": 0.1, "t2": 0.2, "t1|t2": 0.7},
              {"t1": 0.4, "t2": 0.3, "t1|t2": 0.3})
    return shafer, free, tables


def test_conjunctive_pair_under_exclusivity(two_theta_pair):
    shafer, _, tables = two_theta_pair
    nonempty, conflicts, k = conjunctive(matrix(shafer, *tables)).reduced()
    got = {str(e): float(v) for e, v in nonempty.items()}
    assert got == {"t1": pytest.approx(0.35), "t2": pytest.approx(0.33),
                   "t1|t2": pytest.approx(0.21)}
    assert float(k) == pytest.approx(0.11)
    assert {str(e): float(v) for e, v in conflicts.items()} == {"t1&t2": pytest.approx(0.11)}


def test_conjunctive_pair_on_free_lattice(two_theta_pair):
    _, free, tables = two_theta_pair
    raw = conjunctive(matrix(free, *tables))
    nonempty, conflicts, k = raw.reduced()
    assert k == 0 and not conflicts
    got = {str(e): float(v) for e, v in nonempty.items()}
    assert got == {"t1": pytest.approx(0.35), "t2": pytest.approx(0.33),
                   "t1|t2": pytest.approx(0.21), "t1&t2": pytest.approx(0.11)}
    assert sum(raw.masses.values()) == 1


def test_three_source_conjunctive(shafer_ab):
    m = matrix(shafer_ab,
               {"A": 0.6, "B": 0.3, "A|B": 0.1},
               {"A": 0.2, "B": 0.3, "A|B": 0.5},
               {"A": 0.4, "B": 0.4, "A|B": 0.2})
    got = {str(e): float(v) for e, v in conjunctive(m).masses.items()}
    assert got == {"A": pytest.approx(0.284), "B": pytest.approx(0.182),
                   "A|B": pytest.approx(0.010), "A&B": pytest.approx(0.524)}


def test_vacuous_source_is_neutral_for_conjunctive(two_theta_pair):
    shafer, _, tables = two_theta_pair
    plain = conjunctive(matrix(shafer, *tables)).reduced()
    bbas = [Bba(shafer, t) for t in tables] + [vacuous_bba(shafer)]
    with_vba = conjunctive(MassMatrix(bbas)).reduced()
    assert plain == with_vba


def test_conjunctive_is_associative_and_commutative(rng):
    for _ in range(30):
        model, sources = random_shafer_case(rng, max_s=3, min_s=3)
        m123 = conjunctive(MassMatrix(sources)).masses
        folded = conjunctive(MassMatrix(sources[::-1])).masses
        assert m123 == folded
        # fold of a stored pair with the third source
        pair = conjunctive(MassMatrix(sources[:2]))
        acc = {}
        for e1, v1 in pair.masses.items():
            for e2, v2 in sources[2].fractions().items():
                key = model.frame.element(intersect_canon(e1.clauses, e2.clauses))
                acc[key] = acc.get(key, Fraction(0)) + v1 * v2
        assert acc == dict(m123)


def test_conjunctive_matches_reference_enumeration(rng):
    for _ in range(40):
        model, sources = random_shafer_case(rng)
        got = conjunctive(MassMatrix(sources)).reduced()
        reference = conjunctive_reference(
            [{frozenset(model.frame.mask_str(e.clauses[0]).split("|")): v
              for e, v in src.fractions().items()} for src in sources])
        nonempty, _, k = got
        assert sum((v for key, v in reference.items() if not key), Fraction(0)) == k
        for key, value in reference.items():
            if key:
                elem = model.canonical("|".join(sorted(key)))
                assert nonempty.get(elem, Fraction(0)) == value


def test_disjunctive_of_certainties(shafer_ab):
    result = disjunctive(matrix(shafer_ab, {"A": 1.0}, {"B": 1.0}))
    assert_bba(result, {"A|B": 1.0}, tol=0)


def test_disjunctive_with_vacuous_is_total_ignorance(shafer_ab):
    result = disjunctive(matrix(shafer_ab, {"A": 0.6, "B": 0.4}, {"A|B": 1.0}))
    assert_bba(result, {"A|B": 1.0}, tol=0)


def test_disjunctive_pair_matches_enumeration(two_theta_pair):
    shafer, _, tables = two_theta_pair
    result = disjunctive(matrix(shafer, *tables))
    # brute force over the nine factor pairs
    reference = disjunctive_reference(
        [{frozenset(k.split("|")): to_fraction(v) for k, v in t.items()} for t in tables])
    expected = {"|".join(sorted(key)): float(v) for key, v in reference.items()}
    assert_bba(result, expected, tol=1e-12)


def test_disjunctive_core_is_union_of_cores(rng):
    for _ in range(30):
        model, sources = random_shafer_case(rng)
        result = disjunctive(MassMatrix(sources))
        combined_core = set()
        for combo in itertools.product(*[list(src) for src in sources]):
            union = combo[0]
            for e in combo[1:]:
                union = union_of(model, union, e)
            combined_core.add(union)
        assert set(result) <= combined_core
        for elem in result:
            assert not model.reduce(elem).empty


# --- the integer-numerator fold ---------------------------------------------


@st.composite
def mixed_denominator_matrices(draw):
    """Two to four sources on a Shafer, free or hybrid three-label model.

    Each source's masses either are the exact values of floats, as a float
    fusion result fed back as a source (dyadic, denominators around 2^50,
    which do not snap to small ones), or are decimals in millionths.
    """
    kind = draw(st.sampled_from([SHAFER, FREE, HYBRID]))
    frame = Frame(["A", "B", "C"])
    elements = st.lists(st.integers(1, 7), min_size=1, max_size=3).map(
        lambda masks: frame.element(absorb_masks(masks)))
    constraints = draw(st.lists(elements, min_size=1, max_size=2)) if kind == HYBRID else ()
    model = Model(frame, kind, constraints)
    sources = []
    for _ in range(draw(st.integers(2, 4))):
        focals = draw(st.lists(elements, min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(focals), max_size=len(focals)))
        if draw(st.booleans()):
            masses = [Fraction(w / sum(weights)) for w in weights]
        else:
            masses = [Fraction(w, 10 ** 6) for w in weights]
        sources.append(Bba(model, dict(zip(focals, masses))))
    return MassMatrix(sources)


def fold_fractions(fracs, model, combine):
    """``bba._fold``'s integer entries as clause tuples mapped to exact masses.

    ``combine`` names the fold, ``intersect_canon`` the conjunctive and
    ``union_canon`` the disjunctive; it runs on the keys ``model.keying()``
    gives for ``model``'s frame, with the clauses the package keeps.
    """
    key, meet, join = model.keying()[:3]
    op, clauses_of = {intersect_canon: (meet, bba._concat), union_canon: (join, rules_core._unite)}[combine]
    entries, den = bba._fold([bba._scaled(f) for f in fracs], key, op, clauses_of)
    return {absorb_masks(clauses): Fraction(v, den) for clauses, v in entries.values()}


def dubois_prade_exact(m, model):
    """``dubois_prade``'s exact masses, merged and sorted under ``model`` before its one rounding."""
    finished = []
    with patch.object(rules_classic, "_finish", lambda model, out, exact=False, ints=None: finished.append(
            (dict(out), ints))):
        rules_classic.dubois_prade(m, model)
    return _finish(model, finished[0][0], True, finished[0][1])


def dubois_prade_reference(m, model):
    """The Fraction fold under the clause-tuple Dubois-Prade combine, merged and sorted under ``model``."""
    folded = fraction_fold_reference(m.fractions(), dubois_prade_combine_reference(model))
    return _finish(model, {model.frame.element(c): [pair(v)] for c, v in folded.items()}, exact=True)


def pair(v):
    """A rational as the int pair ``_finish`` takes as a share."""
    return v.numerator, v.denominator


@given(mixed_denominator_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_fold_equals_a_fraction_fold(m):
    model, fracs = m.model, m.fractions()
    combines = {"conjunctive": intersect_canon, "disjunctive": union_canon,
                "dubois_prade": dubois_prade_combine_reference(model)}
    reference = {name: fraction_fold_reference(fracs, combine) for name, combine in combines.items()}
    for name in ("conjunctive", "disjunctive"):
        assert fold_fractions(fracs, model, combines[name]) == reference[name]
    assert dubois_prade_exact(m, model) == dubois_prade_reference(m, model)
    assert conjunctive(m).masses == {model.frame.element(c): v for c, v in reference["conjunctive"].items()}
    for name, rule in (("disjunctive", disjunctive), ("dubois_prade", dubois_prade)):
        merged = {}
        for clauses, v in reference[name].items():
            key = model.reduce(model.frame.element(clauses))
            merged[key] = merged.get(key, Fraction(0)) + v
        assert rule(m) == Bba(model, {k: float(v) for k, v in merged.items()})


@st.composite
def closure_matrices(draw):
    """2-3 sources on 1-6 labels whose focal elements include θ0 or ∅.

    Every model kind, with θ0 enabled and an open world; these frames key
    products by region set, where θ0 is -1 and ∅ is 0.  A hybrid model may
    empty every region.
    """
    kind = draw(st.sampled_from([SHAFER, FREE, HYBRID]))
    n = draw(st.integers(1, MAX_HYPER_LABELS))
    frame = Frame([chr(ord("A") + i) for i in range(n)])
    plain = st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3).map(
        lambda masks: frame.element(absorb_masks(masks)))
    closures = st.sampled_from([frame.theta0(), frame.empty_element()])
    constraints = draw(st.lists(plain, min_size=1, max_size=2)) if kind == HYBRID else ()
    model = Model(frame, kind, constraints, world=OPEN, theta0=True)
    sources = []
    for _ in range(draw(st.integers(2, 3))):
        focals = draw(st.lists(st.one_of(closures, plain), min_size=1, max_size=4, unique=True))
        focals = list(dict.fromkeys([draw(closures), *focals]))
        weights = draw(st.lists(st.integers(1, 50), min_size=len(focals), max_size=len(focals)))
        sources.append(Bba(model, {e: Fraction(w, sum(weights)) for e, w in zip(focals, weights)}))
    return MassMatrix(sources)


@given(closure_matrices())
@settings(max_examples=200, deadline=None)
def test_theta0_and_the_empty_set_fold_and_walk_like_the_references(m):
    model, fracs = m.model, m.fractions()
    reference = {name: fraction_fold_reference(fracs, combine)
                 for name, combine in (("conjunctive", intersect_canon), ("disjunctive", union_canon))}
    assert fold_fractions(fracs, model, intersect_canon) == reference["conjunctive"]
    assert fold_fractions(fracs, model, union_canon) == reference["disjunctive"]
    assert dubois_prade_exact(m, model) == dubois_prade_reference(m, model)
    assert conjunctive(m).masses == {model.frame.element(c): v for c, v in reference["conjunctive"].items()}
    merged = {}
    for clauses, v in reference["disjunctive"].items():
        key = model.reduce(model.frame.element(clauses))
        merged[key] = merged.get(key, Fraction(0)) + v
    assert disjunctive(m) == Bba(model, {k: float(v) for k, v in merged.items()})
    ledger = conflict_ledger(m)
    terms, partials, k, involved = conflict_ledger_reference(m)
    views, den = m.numerators(), conjunctive(m).den
    assert [(exact_factors(t, views), Fraction(t.product, den), t.intersection) for t in ledger.terms] == terms
    _, got_partials, got_k = conjunctive(m).reduced()
    assert list(got_partials.items()) == sorted(partials.items())
    assert got_k == k
    assert bba.involved(model, m.fractions()) == involved


def closure_pair():
    """Two sources on an open-world Shafer frame with θ0 enabled, one on θ0 and one on ∅."""
    model = Model(Frame(["A", "B"]), SHAFER, world=OPEN, theta0=True)
    return MassMatrix([Bba(model, {model.frame.theta0(): 0.5, "A": 0.5}),
                       Bba(model, {model.frame.empty_element(): 0.5, "B": 0.5})])


@given(closure_matrices())
@example(closure_pair())
@settings(max_examples=50, deadline=None)
def test_every_element_reads_back_from_its_name(m):
    """``Model.canonical(str(e)) == e`` for each source's and each rule result's elements, θ0 and ∅ included."""
    model = m.model
    results = []
    for name in RULES:
        for opts in VARIANTS:
            with contextlib.suppress(TotalConflictError):
                results.append(run_rule(name, m, options=opts))
    for b in [*m.sources, *results]:
        for e in b:
            assert model.canonical(str(e)) == e, str(e)


def reduced_reference(m, model):
    """``conjunctive(m, model).reduced()`` from the Fraction fold, merged under a fresh twin of ``model``."""
    twin = Model(model.frame, model.kind, model.constraints, model.world, model.theta0_enabled)
    nonempty, conflicts = {}, {}
    for clauses, v in fraction_fold_reference(m.fractions(), intersect_canon).items():
        red = twin.reduce(twin.frame.element(clauses))
        side = conflicts if red.empty else nonempty
        side[red] = side.get(red, Fraction(0)) + v
    return ({e: nonempty[e] for e in sorted(nonempty)}, {e: conflicts[e] for e in sorted(conflicts)},
            sum(conflicts.values(), Fraction(0)))


def listed(reduced):
    """A ``reduced()`` triple with its maps as item lists, so that key order counts."""
    nonempty, conflicts, k = reduced
    return list(nonempty.items()), list(conflicts.items()), k


@given(st.one_of(mixed_denominator_matrices(), closure_matrices()), st.data())
@settings(max_examples=200, deadline=None)
def test_reduced_merges_the_integer_fold_like_the_reference(m, data):
    """Two models on one frame, interleaved: each names the merged entries under its own constraints."""
    frame = m.model.frame
    kind = data.draw(st.sampled_from([SHAFER, FREE, HYBRID]))
    constraints = data.draw(st.lists(
        st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=3).map(
            lambda masks: frame.element(absorb_masks(masks))),
        min_size=1, max_size=2)) if kind == HYBRID else ()
    other = Model(frame, kind, constraints, m.model.world, m.model.theta0_enabled)
    assume(other != m.model)
    for model in (m.model, other, m.model, other):
        nonempty, conflicts, k = got = conjunctive(MassMatrix(m.sources), model).reduced()
        assert listed(got) == listed(reduced_reference(m, model))
        assert not any(e.empty for e in nonempty) and all(e.empty for e in conflicts)
        assert all(e.frame == frame for e in [*nonempty, *conflicts])  # names print with its labels


def test_a_long_lived_hybrid_model_fuses_a_stream_like_fresh_models(rng):
    """Twelve steps through every rule on one model equal the same steps on a fresh model each."""
    frame = Frame(list("ABCDE"))
    constraints = ("A&B", "C&D&E")
    model = Model(frame, HYBRID, constraints)

    def table():
        focals, size = {frame.total_ignorance()}, rng.randint(3, 7)  # ΘI keeps total conflict away
        while len(focals) < size:
            elem = frame.element(absorb_masks(rng.sample(range(1, 32), rng.randint(1, 2))))
            if not model.reduce(elem).empty:
                focals.add(elem)
        weights = [rng.randint(1, 10 ** 6) for _ in focals]
        return {e: Fraction(w, sum(weights)) for e, w in zip(sorted(focals), weights)}

    initial = table()
    kept = dict.fromkeys(RULES, Bba(model, initial))
    fresh = dict.fromkeys(RULES, initial)
    for _ in range(12):
        observation = table()
        for name in RULES:
            got = run_rule(name, MassMatrix([kept[name], Bba(model, observation)]), model)
            twin = Model(frame, HYBRID, constraints)
            want = run_rule(name, MassMatrix([Bba(twin, fresh[name]), Bba(twin, observation)]), twin)
            assert got.masses == want.masses and list(got) == list(want), name
            kept[name], fresh[name] = got, want.fractions()


def large_shafer_case(rng, s, n=None, focals=4):
    """A Shafer model on ``n`` labels (7-16 at random), above the region-set frames, and ``s`` exact sources.

    Each source draws ``focals`` focal elements of one to three labels
    (fewer when draws repeat), so products often conflict.
    """
    n = n or rng.randint(MAX_HYPER_LABELS + 1, MAX_POWERSET_LABELS)
    frame = Frame([f"h{i}" for i in range(n)])
    model = Model(frame, SHAFER)
    sources = []
    for _ in range(s):
        masks = {sum(1 << i for i in rng.sample(range(n), rng.randint(1, 3))) for _ in range(focals)}
        weights = [rng.randint(1, 10 ** 6) for _ in masks]
        sources.append(Bba(model, {frame.element((mask,)): Fraction(w, sum(weights))
                                   for mask, w in zip(sorted(masks), weights)}))
    return model, sources


@pytest.mark.parametrize("s", [2, 3])
def test_rules_on_large_shafer_frames_match_the_references(rng, s):
    for _ in range(15):
        model, sources = large_shafer_case(rng, s)
        tables = [{frozenset(model.frame.mask_str(e.clauses[0]).split("|")): v
                   for e, v in src.fractions().items()} for src in sources]
        nonempty, _, k = got = conjunctive(MassMatrix(sources)).reduced()
        assert listed(got) == listed(reduced_reference(MassMatrix(sources), model))
        m = MassMatrix(sources)
        assert fold_fractions(m.fractions(), model, union_canon) == fraction_fold_reference(m.fractions(), union_canon)
        assert dubois_prade_exact(m, model) == dubois_prade_reference(m, model)
        reference = conjunctive_reference(tables)
        assert sum((v for key, v in reference.items() if not key), Fraction(0)) == k
        assert nonempty == {model.canonical("|".join(sorted(key))): v for key, v in reference.items() if key}
        got = pcr5_multi(MassMatrix(sources))
        for key, value in pcr5_reference(tables).items():
            assert got[model.canonical("|".join(sorted(key)))] == pytest.approx(float(value), abs=1e-12)
        assert got.total() == pytest.approx(1.0, abs=1e-12)


def test_disjunctive_fold_unites_each_product_once_on_large_shafer_frames(rng):
    # on 7-16 labels the fold's key is the union's clause tuple, which also names the entry
    model, sources = large_shafer_case(rng, 4, n=16, focals=8)
    m = MassMatrix(sources)
    fracs = m.fractions()
    products, keys = 0, {e.clauses for e in fracs[0]}
    for src in fracs[1:]:
        products += len(keys) * len(src)
        keys = {union_canon(k, e.clauses) for k in keys for e in src}
    calls = {"lattice": 0, "rules_core": 0}

    def counted(module):
        def wrapper(a, b):
            calls[module] += 1
            return union_canon(a, b)
        return wrapper

    with patch.object(lattice, "union_canon", counted("lattice")), \
            patch.object(rules_core, "union_canon", counted("rules_core")):
        got = disjunctive(m)
    assert calls == {"lattice": products, "rules_core": 0}
    merged = {}
    for clauses, v in fraction_fold_reference(fracs, union_canon).items():
        key = model.reduce(model.frame.element(clauses))
        merged[key] = merged.get(key, Fraction(0)) + v
    assert got == Bba(model, {k: float(v) for k, v in merged.items()})


# --- one consensus per matrix -------------------------------------------------

VARIANTS = (RuleOptions(), RuleOptions(minc_version="b", wao_mode="dynamic", pcr5_variant="approx"))


def hybrid_triple():
    model = Model(Frame(["A", "B", "C"]), HYBRID, ["A&B"])
    return matrix(model, {"A": 0.5, "B|C": 0.3, "A|B|C": 0.2},
                  {"B": 0.6, "A&C": 0.1, "A|C": 0.3},
                  {"A": 0.2, "B": 0.2, "C": 0.6})


def count_passes(monkeypatch):
    """Record each consensus fold (by the sources it folds) and each ledger walk."""
    folds, walks = [], []
    fold, walk = bba._fold, bba.walk_terms
    monkeypatch.setattr(bba, "_fold", lambda views, *args: folds.append(
        tuple(map(id, views))) or fold(views, *args))
    monkeypatch.setattr(bba, "walk_terms", lambda *args: walks.append(args) or walk(*args))
    return folds, walks


def test_rules_on_one_matrix_share_one_consensus_and_one_ledger(monkeypatch):
    folds, walks = count_passes(monkeypatch)
    m = hybrid_triple()
    raw = conjunctive(m)
    for name in RULES:
        for opts in VARIANTS:
            run_rule(name, m, options=opts, diag=Diagnostics())
    assert conjunctive(m) is raw and conjunctive(m, m.model) is raw
    # one fold of the matrix, plus one of the approximate PCR5's head (the first s-1 sources)
    assert folds == [tuple(map(id, m.numerators())), tuple(map(id, m.numerators()[:2]))]
    assert len(walks) == 1  # exact PCR5 alone walks the terms, once per run; the other variant runs approx
    other = Model(m.model.frame, FREE)
    assert conjunctive(m, other) is not raw
    assert conjunctive(m, other).reduced()[2] == 0


def test_sequential_fusion_folds_the_initial_consensus_once(monkeypatch):
    folds, _ = count_passes(monkeypatch)
    scenario = scenario_from_dict({
        "frame": ["A", "B"], "model": {"kind": "shafer"},
        "sources": [{"A": 0.6, "B": 0.3, "A|B": 0.1}, {"A": 0.2, "B": 0.7, "A|B": 0.1}],
        "stream": [{"A": 0.4, "B": 0.6}, {"A": 0.5, "A|B": 0.5}]})
    report = sequential_fusion(scenario)
    assert [run.name for run in report.runs] == list(RULES) and not report.failed()
    initial = tuple(id(src.numerators()) for src in scenario.sources)
    assert folds.count(initial) == 1


def test_a_matrix_keeps_one_ledger_per_model():
    m = hybrid_triple()
    ledger = conflict_ledger(m)
    assert conflict_ledger(m, m.model) == ledger  # the same terms, walked again: the matrix keeps no ledger
    _, partials, k = conjunctive(m).reduced()
    summed = {}
    for term in ledger.terms:
        summed[term.intersection] = summed.get(term.intersection, 0) + Fraction(term.product, conjunctive(m).den)
    assert summed == partials and sum(summed.values()) == k
    assert conflict_ledger(m, Model(m.model.frame, FREE)).terms == ()


def test_pcr5_on_a_fresh_matrix_folds_once_and_walks_once(monkeypatch):
    folds, walks = count_passes(monkeypatch)
    m, other = hybrid_triple(), hybrid_triple()
    assert pcr5_multi(m).total() == pytest.approx(1.0, abs=1e-12)
    assert pcr5_pair(m[0], m[2]).total() == pytest.approx(1.0, abs=1e-12)
    assert run_rule("pcr5", other).total() == pytest.approx(1.0, abs=1e-12)
    assert len(folds) == len(set(folds)) == 3 and len(walks) == 3


def test_run_rule_refuses_a_model_of_another_frame():
    m = hybrid_triple()
    other = Model(Frame(["X", "Y"]), SHAFER)
    for name in RULES:
        with pytest.raises(ValueError, match="frame"):
            run_rule(name, m, other)
    # a fusion model on the matrix's own frame, with a constraint learned late, still runs
    frame = m.model.frame
    dynamic = Model(frame, HYBRID, m.model.constraints + (frame.singleton("C"),))
    result = run_rule("pcr5", m, dynamic)
    assert result == pcr5_multi(m, dynamic) and result.model == dynamic
    assert result.total() == pytest.approx(1.0, abs=1e-12) and not result[frame.singleton("C")]


RULE_FUNCTIONS = {
    "conjunctive": conjunctive, "disjunctive": disjunctive, "dempster": dempster, "smets": smets,
    "yager": yager, "dubois_prade": dubois_prade, "dsm_hybrid": dsm_hybrid,
    "wao": lambda m, model: wao(m, model=model),
    "wao_dynamic": lambda m, model: wao(m, "dynamic", model),
    "minc": lambda m, model: minc(m, model=model),
    "minc_b": lambda m, model: minc(m, "b", model),
    "pcr1": pcr1, "pcr2": pcr2, "pcr3": pcr3, "pcr4": pcr4, "pcr5_multi": pcr5_multi,
    "pcr5_pair": lambda m, model: pcr5_pair(m[0], m[1], model),
    "pcr5_approximate": pcr5_approximate,
    "weighted_operator": lambda m, model: weighted_operator(m, {"A": 1.0}, model),
    "column_sum": lambda m, model: column_sum(m, "A", model),
}


@pytest.mark.parametrize("rule", list(RULE_FUNCTIONS))
def test_every_rule_function_refuses_a_model_of_another_frame(rule):
    m = hybrid_triple()
    with pytest.raises(ValueError, match="frame"):
        RULE_FUNCTIONS[rule](m, Model(Frame(["X", "Y"]), SHAFER))
    # the matrix's own frame under another model still runs
    RULE_FUNCTIONS[rule](m, Model(m.model.frame, FREE))


@pytest.mark.parametrize("name, field, value", [
    ("pcr5", "pcr5_variant", "aprox"), ("minc", "minc_version", "c"), ("wao", "wao_mode", "x")])
def test_an_unknown_rule_variant_is_refused(name, field, value):
    with pytest.raises(ValueError, match=repr(value)):
        run_rule(name, hybrid_triple(), options=RuleOptions(**{field: value}))


@pytest.mark.parametrize("field, value", [
    ("minc_version", "b"), ("wao_mode", "dynamic"), ("pcr5_variant", "approx"), ("order", (2, 1))])
def test_rule_options_take_each_field_by_name(field, value):
    opts = RuleOptions(**{field: value})
    assert getattr(opts, field) == value and opts != RuleOptions()
    assert opts._replace(**{field: getattr(RuleOptions(), field)}) == RuleOptions()
    assert RuleOptions(order=(2, 1))._replace(order=None) == RuleOptions()


def test_collectors_share_no_lists():
    a, b = Diagnostics(), Diagnostics()
    a.record("X", "A", Fraction(1, 2))
    a.fallback("X", "theta0", None, Fraction(1, 2))
    a.notes.append("note")
    assert b.records == b.fallbacks == b.notes == []


@pytest.mark.parametrize("change", [
    lambda d: d.record("X", "A", Fraction(1)),
    lambda d: d.fallback("X", "empty-set", None, Fraction(1)),
    lambda d: setattr(d, "sum_deficit", 0.25),
    lambda d: setattr(d, "order", (2, 1)),
    lambda d: d.notes.append("note"),
], ids=["records", "fallbacks", "sum_deficit", "order", "notes"])
def test_collectors_compare_on_every_field(change):
    diag = Diagnostics()
    assert diag == Diagnostics()
    change(diag)
    assert diag != Diagnostics()


def test_terms_and_records_read_their_fields_by_name():
    m = hybrid_triple()
    term, views = conflict_ledger(m).terms[0], m.numerators()
    assert (term.factors, term.product, term.intersection) == tuple(term)
    exact = exact_factors(term, views)
    assert Fraction(term.product, conjunctive(m).den) == reduce(lambda p, f: p * f[1], exact, Fraction(1))
    assert m.model.reduce(term.intersection).empty
    diag = Diagnostics()
    run_rule("pcr5", m, diag=diag)
    assert diag.records and sum(r.amount for r in diag.records) == conjunctive(m).reduced()[2]
    record = diag.records[0]
    assert (record.source, record.destination, record.amount, record.constant) == tuple(record)
    assert record.source == exact  # PCR5 names a transfer by its term's factors, with exact masses
    events = Diagnostics()
    events.record("X", "A", Fraction(1))
    events.fallback("X", "theta0", None, Fraction(1))
    assert events.records[0].constant is None
    assert (events.fallbacks[0].stage, events.fallbacks[0].amount) == ("theta0", Fraction(1))


def test_rules_leave_no_reference_cycles():
    m = hybrid_triple()  # built first: the expression parser's closures form cycles
    gc.collect()
    gc.disable()
    try:
        results = [run_rule(name, m, options=opts, diag=Diagnostics())
                   for name in RULES for opts in VARIANTS]
        assert all(r.total() > 0 for r in results)
        del m, results
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- rule results: built once, fed back exactly -------------------------------


@st.composite
def matrices_and_fusion_models(draw):
    """An exact matrix with its own model, or with a fusion model in which some labels became empty."""
    m = draw(exact_matrices())
    if draw(st.booleans()):
        return m, m.model
    frame = m.model.frame
    base = shafer_as_hybrid(frame).constraints if m.model.kind == SHAFER else m.model.constraints
    dead = draw(st.lists(st.sampled_from(frame.labels), min_size=1, unique=True))
    return m, Model(frame, HYBRID, base + tuple(frame.singleton(label) for label in dead),
                    theta0=draw(st.booleans()))


def each_rule_result(m, model):
    """``(result, (model, out, ints))`` per rule and variant: the ``Bba`` and what the rule handed ``_finish``."""
    finished = []

    def record(model, out, exact=False, ints=None):
        finished.append((model, dict(out), ints))
        return _finish(model, out, exact, ints)

    with contextlib.ExitStack() as stack:
        for module in (rules_classic, rules_core, rules_pcr):
            stack.enter_context(patch.object(module, "_finish", record))
        for name in RULES:
            for opts in VARIANTS:
                finished.clear()
                try:
                    result = run_rule(name, m, model, opts, Diagnostics())
                except TotalConflictError:
                    continue
                assert len(finished) == 1, name
                yield result, finished[0]


@given(matrices_and_fusion_models())
@settings(max_examples=100, deadline=None)
def test_rule_results_equal_a_bba_built_from_their_exact_masses(case):
    for result, (model, out, ints) in each_rule_result(*case):
        expected = Bba(model, {k: float(v) for k, v in _finish(model, out, True, ints).items()})
        assert result.model == expected.model
        assert list(result.items()) == list(expected.items())


CONFLICT_MOVERS = [(name, RuleOptions()) for name in (
    "yager", "dsm_hybrid", "minc", "pcr1", "pcr2", "pcr3", "pcr4", "pcr5")] + [
    ("minc", RuleOptions(minc_version="b")), ("pcr5", RuleOptions(pcr5_variant="approx")),
    ("wao", RuleOptions(wao_mode="dynamic"))]


@given(matrices_and_fusion_models())
@settings(max_examples=100, deadline=None)
def test_redistributing_rules_move_exactly_the_conflict(case):
    """Transfer records plus fallbacks with a destination add up to ``k``, as rationals."""
    m, model = case
    k = conjunctive(m, model).reduced()[2]
    for name, opts in CONFLICT_MOVERS:
        diag = Diagnostics()
        run_rule(name, m, model, opts, diag)
        moved = sum((r.amount for r in diag.records), Fraction(0))
        moved += sum((f.amount for f in diag.fallbacks if f.destination is not None), Fraction(0))
        assert moved == k, (name, opts)


@given(matrices_and_fusion_models())
@settings(max_examples=300, deadline=None)
def test_redistributing_rules_leave_no_mass_on_empty_elements(case):
    """While the total ignorance is non-empty, every fallback chain ends before ∅."""
    m, model = case
    assume(not model.total_ignorance().empty)
    for name, opts in CONFLICT_MOVERS:
        result = run_rule(name, m, model, opts)
        assert not [e for e, v in result.items() if v > 0 and model.reduce(e).empty], (name, opts)


@pytest.mark.parametrize("name, opts", [
    ("pcr1", RuleOptions()), ("pcr2", RuleOptions()),
    ("minc", RuleOptions(minc_version="a")), ("minc", RuleOptions(minc_version="b"))])
def test_conflict_between_vanished_labels_goes_to_the_total_ignorance(name, opts):
    frame = Frame(["A", "B", "C"])
    base = Model(frame, SHAFER)
    fusion = Model(frame, HYBRID, shafer_as_hybrid(frame).constraints
                   + (frame.singleton("A"), frame.singleton("B")))
    diag = Diagnostics()
    result = run_rule(name, matrix(base, {"A": 1.0}, {"B": 1.0}), fusion, opts, diag)
    assert dict(result.items()) == {fusion.canonical("C"): 1.0}
    assert [(f.stage, f.amount) for f in diag.fallbacks] == [("total-ignorance", 1)]


def test_finish_merges_before_pruning_below_1e_12():
    frame = Frame(["A", "B", "C"])
    model, free = Model(frame, SHAFER), Model(frame, FREE)
    a, b, c = (model.canonical(x) for x in "ABC")
    a_too = free.canonical("(A|B)&(A|C)")  # A under the Shafer model
    b_too = free.canonical("(B|A)&(B|C)")
    small, tiny = Fraction(6, 10 ** 13), Fraction(4, 10 ** 13)
    out = {a: small, a_too: small, b: tiny, b_too: tiny, c: 1 - 2 * small - 2 * tiny}
    result = _finish(model, {elem: [pair(v)] for elem, v in out.items()})
    assert list(result) == [a, c]  # 1.2e-12 on A is kept, 8e-13 on B is pruned
    assert result[a] == float(2 * small)
    with pytest.raises(NegativeMassError):
        _finish(model, {a: [(-1, 10)], c: [(11, 10)]})


HALF = Fraction(1, 2)
ABOVE_HALF = HALF + Fraction(1, 2 ** 54)  # the midpoint above 0.5, whose even neighbour is 0.5


def offsets():
    """Signed offsets of ``f / (d * 2**e)``: below, on or above the float ``f``'s neighbours."""
    return st.one_of(st.just(0), st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, 3]), st.integers(0, 400)))


def placed(f, offset, midpoint):
    """The rational ``f`` or its midpoint with the next float up, moved by ``offset``."""
    target = (Fraction(f) + Fraction(math.nextafter(f, 2))) / 2 if midpoint else Fraction(f)
    if offset:
        sign, d, e = offset
        target += sign * Fraction(f) / (d << e)
    return target


TARGETS = st.one_of(
    st.builds(placed, st.floats(1e-13, 1, allow_subnormal=False), offsets(), st.just(True)),
    st.builds(placed, st.floats(0.9e-12, 1.1e-12), offsets(), st.booleans()),
    st.integers(1, 2 ** 4000).flatmap(lambda den: st.builds(Fraction, st.integers(0, den), st.just(den))),
)


@given(TARGETS, st.lists(st.integers(1, 2 ** 64), min_size=1, max_size=6),
       st.lists(st.integers(1, 2 ** 3000), min_size=6, max_size=6), st.booleans(),
       st.sampled_from([None, 0, 8, 60]))
@example(ABOVE_HALF + Fraction(1, 3 << 200), [1], [1] * 6, False, None)  # one share, just above a midpoint
@example(ABOVE_HALF, [1, 2], [3] * 6, True, None)  # on a midpoint, every floor inexact
@settings(max_examples=300, deadline=None)
def test_finish_reads_out_float_of_the_exact_sum(target, weights, scales, consensus, k):
    """Split ``target`` into a consensus part and int-pair shares, some of thousands of bits: the read-out is ``float(target)``.

    The parts are ``target * w / sum(weights)``, unreduced, as a
    proportional split makes them; with ``consensus`` the first is the
    consensus part ``n/den``.  ``k``, when set, replaces ``_transfer.K``:
    small ones make most reads fall back to the exact sum.
    """
    frame = Frame(["A", "B"])
    model = Model(frame, SHAFER)
    a = model.canonical("A")
    total = sum(weights)
    parts = [(target.numerator * w * m, target.denominator * total * m) for w, m in zip(weights, scales)]
    (n, den), shares = (parts[0], parts[1:]) if consensus else ((0, scales[0]), parts)
    with patch.object(_transfer, "K", _transfer.K if k is None else k):
        result = _finish(model, {a: shares} if shares else {}, ints=({a: n}, den))
        assert _finish(model, {a: shares} if shares else {}, True, ({a: n}, den)) == {a: target}
    want = float(target)
    assert dict(result.items()) == ({a: want} if want >= 1e-12 else {})


@pytest.mark.parametrize("k", [None, 8])
def test_finish_falls_back_to_the_exact_sum_where_the_fixed_point_sum_straddles_a_rounding(k):
    """One share just above a midpoint whose even neighbour is below it: the floored sum is the midpoint.

    So the fixed-point sum alone would round down; the exact sum rounds up.
    With the default ``K`` or a small one, the read-out must sum exactly.
    """
    frame = Frame(["A", "B"])
    model = Model(frame, SHAFER)
    a = model.canonical("A")
    target = ABOVE_HALF + Fraction(1, 3 << 200)
    exact, calls = _transfer.exact, []

    def counted(*args):
        calls.append(args)
        return exact(*args)

    with patch.object(_transfer, "exact", counted), patch.object(_transfer, "K", k or _transfer.K):
        result = _finish(model, {a: [(target.numerator, target.denominator)]})
    assert result[a] == float(target) == math.nextafter(0.5, 1)
    assert len(calls) == 1


def is_dyadic(q):
    return q.denominator & (q.denominator - 1) == 0


@given(matrices_and_fusion_models())
@settings(max_examples=50, deadline=None)
def test_rule_results_feed_back_the_exact_value_of_each_float(case):
    for result, _ in each_rule_result(*case):
        fractions = result.fractions()
        assert list(fractions) == list(result)
        for elem, value in result.items():
            assert fractions[elem] == Fraction(value) and is_dyadic(fractions[elem])


def test_user_float_masses_still_snap_to_small_decimals():
    model = Model(Frame(["A", "B"]), SHAFER)
    user = Bba(model, {"A": 0.1, "B": 0.9})
    assert dict(user.fractions()) == {model.canonical("A"): Fraction(1, 10),
                                      model.canonical("B"): Fraction(9, 10)}
    fused = run_rule("pcr5", MassMatrix([user, Bba(model, {"A": 0.4, "B": 0.6})]))
    assert all(is_dyadic(q) for q in fused.fractions().values())
    # the same floats passed in by a user snap again
    assert Bba(model, dict(fused.items())).fractions() == {
        e: to_fraction(v) for e, v in fused.items()}


# --- the walk is PCR5's alone -------------------------------------------------


def large_shafer_matrices(s):
    """``large_shafer_case`` drawn from a Hypothesis-seeded generator, with its own model."""
    return st.randoms(use_true_random=False).map(lambda r: large_shafer_case(r, s)).map(
        lambda case: (MassMatrix(case[1]), case[0]))


MODEL_SIDE_CASES = st.one_of(
    matrices_and_fusion_models(),
    closure_matrices().map(lambda m: (m, m.model)),
    mixed_denominator_matrices().map(lambda m: (m, m.model)),
    large_shafer_matrices(2),
    large_shafer_matrices(3),
)


@given(st.one_of(matrices_and_fusion_models(), large_shafer_matrices(2), large_shafer_matrices(3)))
@settings(max_examples=200, deadline=None)
def test_the_model_names_conflicts_and_merged_entries_in_one_cache(case):
    """A conflict's free key never equals a live key, so ``Model.name`` keeps both in one cache.

    The consensus and the walk name their products first; every name must
    then be what a fresh, equal model reduces the product's clauses to.
    """
    m, model = case
    raw = conjunctive(m, model)
    nonempty, conflicts, _ = raw.reduced()
    terms = conflict_ledger(m, model).terms
    live = model.keying()[4]
    free_keys = {key for key in raw._entries if not live(key)}
    assert free_keys.isdisjoint(here for key in raw._entries if (here := live(key)))
    twin = Model(model.frame, model.kind, model.constraints, model.world, model.theta0_enabled)

    def reference(clauses):
        return twin.reduce(twin.frame.element(absorb_masks(clauses)))

    names = {key: reference(clauses) for key, (clauses, _) in raw._entries.items()}
    assert set(conflicts) == {names[key] for key in free_keys}
    assert set(nonempty) == {e for key, e in names.items() if key not in free_keys}
    for key, (clauses, _) in raw._entries.items():
        got = model.name(live(key) or key, clauses)
        assert got == names[key] and got.empty == (key in free_keys)
    for term in terms:
        want = reference([c for e, _ in term.factors for c in e.clauses])
        assert term.intersection == want and term.intersection.empty and want.empty


@given(MODEL_SIDE_CASES)
@settings(max_examples=300, deadline=None)
def test_involved_from_keys_equals_the_flat_product_reference(case):
    m, model = case
    assert bba.involved(model, m.fractions()) == conflict_ledger_reference(m, model)[3]


@given(MODEL_SIDE_CASES)
@settings(max_examples=200, deadline=None)
def test_a_conflicts_disjunctive_form_is_that_of_its_components(case):
    """PCR3, PCR4 and minC start a conflict's fallback chain at its own labels, not its components'.

    The regions a model leaves alive are closed under subsets, so reducing
    one clause keeps exactly its labels whose singleton is alive: each
    component is that single clause, or the clause flagged empty when no
    label is alive.  So both give one disjunctive form.
    """
    m, model = case
    frame = model.frame
    alive = sum(1 << i for i, label in enumerate(frame.labels) if not model.reduce(frame.singleton(label)).empty)
    for conflict in conjunctive(m, model).reduced()[1]:
        for c in conflict.clauses:
            comp = model.disjunctive(c)
            assert (comp.clauses, comp.empty) == (((c & alive,), False) if c & alive else ((c,), True))
        comps = dict.fromkeys(model.disjunctive(c) for c in conflict.clauses)
        own = model.disjunctive(conflict.labels_mask())
        joined = model.disjunctive(reduce(or_, (e.labels_mask() for e in comps)))
        assert (own.clauses, own.empty) == (joined.clauses, joined.empty)


def dsm_hybrid_per_term(m, model, diag):
    """Hybrid DSm as one fallback unit per conflicting product term of the flat product.

    A term goes to the disjunctive form of its intersection, or to the union
    of its factors' labels when every factor is empty under ``model``.
    """
    units = []
    for factors, product, intersection in conflict_ledger_reference(m, model)[0]:
        elements = [e for e, _ in factors]
        if not all(model.reduce(e).empty for e in elements):
            elements = [intersection]
        units.append((intersection, pair(product), [], reduce(or_, (e.labels_mask() for e in elements))))
    nonempty = reduced_reference(m, model)[0]
    return _finish(model, redistribute(model, {e: [pair(v)] for e, v in nonempty.items()}, units, diag), exact=True)


def fallback_sums(diag):
    sums = {}
    for f in diag.fallbacks:
        key = (f.stage, f.destination)
        sums[key] = sums.get(key, Fraction(0)) + f.amount
    return sums


@given(MODEL_SIDE_CASES)
@settings(max_examples=200, deadline=None)
def test_dsm_hybrid_per_partial_conflict_equals_the_per_term_rule(case):
    m, model = case
    finished, diag, want_diag = [], Diagnostics(), Diagnostics()
    with patch.object(rules_classic, "_finish", lambda model, out, exact=False, ints=None: finished.append(
            (dict(out), ints))):
        rules_classic.dsm_hybrid(MassMatrix(m.sources), model, diag)
    assert _finish(model, finished[0][0], True, finished[0][1]) == dsm_hybrid_per_term(m, model, want_diag)
    assert fallback_sums(diag) == fallback_sums(want_diag)
    assert len(diag.fallbacks) <= len(want_diag.fallbacks)


@pytest.mark.parametrize("name", ["pcr2", "dsm_hybrid"])
def test_pcr2_and_dsm_hybrid_on_a_fresh_matrix_fold_once_and_never_walk(monkeypatch, name):
    folds, walks = count_passes(monkeypatch)
    m = hybrid_triple()
    assert run_rule(name, m).total() == pytest.approx(1.0, abs=1e-12)
    assert folds == [tuple(map(id, m.numerators()))] and walks == []
    assert conjunctive(m).reduced()[2] > 0  # there was conflict to walk


# --- one naming path ------------------------------------------------------------


def two_source_hybrid():
    model = Model(Frame(["A", "B", "C"]), HYBRID, ["A&B"])
    return matrix(model, {"A": 0.5, "B|C": 0.3, "A|B|C": 0.2}, {"B": 0.6, "A&C": 0.1, "A|C": 0.3})


@pytest.mark.parametrize("name", ["conjunctive", "smets"])
def test_a_built_consensus_view_is_read_out_with_no_reduction(monkeypatch, name):
    """The view's keys are already reduced and disjoint, so the rule only joins and sorts them."""
    m = two_source_hybrid()
    assert conjunctive(m).numerators()[2] > 0  # conflicts to keep apart, or to put on ∅
    calls, reduce = [], Model.reduce
    monkeypatch.setattr(Model, "reduce", lambda self, elem: calls.append(elem) or reduce(self, elem))
    result = run_rule(name, m)
    assert calls == []
    assert result.total() == pytest.approx(1.0, abs=1e-12)
    assert any(e.empty for e in result)


@given(matrices_and_fusion_models())
@settings(max_examples=200, deadline=None)
def test_single_source_dubois_prade_is_the_conjunctive_rule(case):
    """One source has no product: Dubois-Prade reads out the consensus's view, conflicts kept apart."""
    m, model = case
    got, want = (run_rule(name, MassMatrix(m.sources[:1]), model) for name in ("dubois_prade", "conjunctive"))
    assert [(e, e.empty, v) for e, v in got.items()] == [(e, e.empty, v) for e, v in want.items()]


@st.composite
def clause_keyed_twins(draw):
    """2-3 sources on a Shafer frame of 2-6 labels, on two equal models: one keyed by region set, one by clauses.

    The second model drops its mask of live regions, so :meth:`Model.keying`
    gives it clause tuples, as it does on frames of 7-16 labels.  Focal
    elements are free forms that the model may empty, θ0 when the model
    enables it and ∅ in an open world.
    """
    n = draw(st.integers(2, MAX_HYPER_LABELS))
    frame = Frame([chr(ord("A") + i) for i in range(n)])
    world, theta0 = draw(st.sampled_from([CLOSED, OPEN])), draw(st.booleans())
    twins = Model(frame, SHAFER, world=world, theta0=theta0), Model(frame, SHAFER, world=world, theta0=theta0)
    twins[1]._alive = None
    elements = [st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3).map(
        lambda masks: frame.element(absorb_masks(masks)))]
    elements += [st.just(frame.theta0())] if theta0 else []
    elements += [st.just(frame.empty_element())] if world == OPEN else []
    tables = []
    for _ in range(draw(st.integers(2, 3))):
        focals = draw(st.lists(st.one_of(elements), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 50), min_size=len(focals), max_size=len(focals)))
        tables.append({e: Fraction(w, sum(weights)) for e, w in zip(focals, weights)})
    return [MassMatrix([Bba(model, t) for t in tables]) for model in twins]


@given(clause_keyed_twins())
@settings(max_examples=150, deadline=None)
def test_region_and_clause_keys_give_bit_identical_results(twins):
    regions, clauses = twins
    assert regions.model.keying()[3] == -1 and clauses.model.keying()[3] == ()
    for name in RULES:
        for opts in VARIANTS:
            runs = []
            for m in twins:
                diag = Diagnostics()
                try:
                    result = run_rule(name, m, options=opts, diag=diag)
                except TotalConflictError:
                    runs.append(None)
                    continue
                runs.append(([(e, e.empty, v.hex()) for e, v in result.items()], diag))
            assert runs[0] == runs[1], (name, opts)
