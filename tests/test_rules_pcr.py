from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massfusion import (
    Bba,
    Diagnostics,
    FREE,
    Frame,
    HYBRID,
    MassMatrix,
    Model,
    SHAFER,
    conjunctive,
    dempster,
    minc,
    pcr1,
    pcr2,
    pcr3,
    pcr4,
    pcr5_approximate,
    pcr5_multi,
    pcr5_pair,
    shafer_as_hybrid,
    vacuous_bba,
    validate_bba,
    wao,
)
from massfusion import rules_pcr
from massfusion.rules_core import _finish

from conftest import assert_bba, exact_matrices, matrix, random_shafer_case
from oracles import pcr5_enumeration_reference, pcr5_reference

ZADEH = ({"A": 0.9, "C": 0.1}, {"B": 0.9, "C": 0.1})
PAIR_82 = ({"A": 0.7, "B": 0.1, "A|B": 0.2}, {"A": 0.5, "B": 0.4, "A|B": 0.1})
BAYES_93 = ({"A": 0.6, "B": 0.3, "C": 0.1}, {"A": 0.4, "B": 0.4, "C": 0.2})
PAIR_103 = ({"A": 0.6, "B": 0.3, "A|B": 0.1}, {"A": 0.2, "B": 0.3, "A|B": 0.5})


@pytest.fixture
def zadeh(shafer_abc):
    return matrix(shafer_abc, *ZADEH)


@pytest.fixture
def hybrid_pair():
    frame = Frame(["A", "B", "C"])
    model = Model(frame, HYBRID, ["A&B"])
    return matrix(model, {"A": 0.5, "B": 0.4, "C": 0.1}, {"A": 0.6, "B": 0.2, "C": 0.2})


# --- PCR1 ---------------------------------------------------------------------


def test_pcr1_pair(shafer_ab):
    assert_bba(pcr1(matrix(shafer_ab, *PAIR_82)), {"A": 0.7180, "B": 0.2125, "A|B": 0.0695},
               tol=1e-12)


def test_pcr1_zadeh(zadeh):
    assert_bba(pcr1(zadeh), {"A": 0.4455, "B": 0.4455, "C": 0.1090}, tol=1e-12)


def test_pcr1_handles_late_emptiness(frame_abc, shafer_abc):
    learned_b_empty = Model(frame_abc, HYBRID, ["A&B", "A&C", "B&C", "B"])
    m = matrix(shafer_abc, {"A": 0.3, "B": 0.4, "C": 0.3}, {"A": 0.5, "B": 0.1, "C": 0.4})
    result = pcr1(m, model=learned_b_empty)
    assert_bba(result, {"A": 0.5393, "C": 0.4607})
    assert result.total() == pytest.approx(1.0, abs=1e-12)


def test_pcr1_equals_dynamic_wao(rng, frame_abc, shafer_abc):
    learned_b_empty = Model(frame_abc, HYBRID, ["A&B", "A&C", "B&C", "B"])
    m = matrix(shafer_abc, {"A": 0.3, "B": 0.4, "C": 0.3}, {"A": 0.5, "B": 0.1, "C": 0.4})
    assert pcr1(m, model=learned_b_empty).masses == wao(m, "dynamic", model=learned_b_empty).masses


@st.composite
def late_emptiness(draw):
    """An exact matrix and a fusion model in which some labels have become empty."""
    m = draw(exact_matrices())
    frame = m.model.frame
    base = shafer_as_hybrid(frame).constraints if m.model.kind == SHAFER else m.model.constraints
    dead = draw(st.lists(st.sampled_from(frame.labels), min_size=1, unique=True))
    fusion = Model(frame, HYBRID, base + tuple(frame.singleton(label) for label in dead),
                   theta0=draw(st.booleans()))
    return m, fusion


@given(late_emptiness())
@settings(max_examples=150, deadline=None)
def test_dynamic_wao_is_pcr1_under_late_emptiness(case):
    m, fusion = case
    runs = []
    for rule in (lambda d: pcr1(m, fusion, d), lambda d: wao(m, "dynamic", fusion, d)):
        diag = Diagnostics()
        runs.append((rule(diag).masses, diag))
    assert runs[0] == runs[1]


def test_pcr1_equals_static_wao_on_ordinary_inputs(rng):
    for _ in range(50):
        _, sources = random_shafer_case(rng)
        m = MassMatrix(sources)
        a = pcr1(m)
        b = wao(m, "static")
        for elem in set(a) | set(b):
            assert abs(a[elem] - b[elem]) <= 1e-12


def test_pcr1_not_neutral_for_vacuous_input(shafer_ab):
    m = matrix(shafer_ab, *PAIR_82)
    plain = pcr1(m)
    padded = pcr1(MassMatrix(list(m.sources) + [vacuous_bba(shafer_ab)]))
    assert abs(padded["A"] - plain["A"]) > 1e-3


def test_pcr1_example4(hybrid_pair):
    assert_bba(pcr1(hybrid_pair),
               {"A": 0.487, "B": 0.182, "C": 0.071, "A&C": 0.16, "B&C": 0.10}, tol=1e-12)


# --- PCR2 ---------------------------------------------------------------------


def test_pcr2_pair(shafer_ab):
    assert_bba(pcr2(matrix(shafer_ab, *PAIR_82)),
               {"A": 0.752941, "B": 0.227059, "A|B": 0.02})


def test_pcr2_vacuous_neutrality_on_pair(shafer_ab):
    m = matrix(shafer_ab, *PAIR_82)
    padded = MassMatrix(list(m.sources) + [vacuous_bba(shafer_ab)])
    assert pcr2(m).masses == pcr2(padded).masses


def test_pcr2_zadeh_matches_pcr1(zadeh):
    assert pcr2(zadeh).masses == pcr1(zadeh).masses


def test_pcr2_example4(hybrid_pair):
    assert_bba(pcr2(hybrid_pair),
               {"A": 0.52, "B": 0.20, "C": 0.02, "A&C": 0.16, "B&C": 0.10}, tol=1e-12)


# --- PCR3 ---------------------------------------------------------------------


def test_pcr3_bayesian_pair(shafer_abc):
    assert_bba(pcr3(matrix(shafer_abc, *BAYES_93)),
               {"A": 0.574842, "B": 0.338235, "C": 0.086923})


def test_pcr3_vacuous_neutrality(shafer_abc):
    m = matrix(shafer_abc, *BAYES_93)
    padded = MassMatrix(list(m.sources) + [vacuous_bba(shafer_abc)])
    assert pcr3(m).masses == pcr3(padded).masses


def test_pcr1_bayesian_pair(shafer_abc):
    assert_bba(pcr1(matrix(shafer_abc, *BAYES_93)), {"A": 0.550, "B": 0.337, "C": 0.113},
               tol=5e-4)


def test_pcr3_zadeh(zadeh):
    assert_bba(pcr3(zadeh), {"A": 0.478636, "B": 0.478636, "C": 0.042728})


def test_pcr3_example4_matches_pcr2(hybrid_pair):
    assert pcr3(hybrid_pair).masses == pcr2(hybrid_pair).masses


# --- PCR4 ---------------------------------------------------------------------


def test_pcr4_pair(shafer_ab):
    assert_bba(pcr4(matrix(shafer_ab, *PAIR_103)), {"A": 0.5887, "B": 0.3613, "A|B": 0.05},
               tol=5e-4)


def test_pcr4_2d_bayesian_equals_dempster(shafer_ab):
    m = matrix(shafer_ab, {"A": 0.6, "B": 0.4}, {"A": 0.1, "B": 0.9})
    assert_bba(pcr4(m), {"A": 0.142857, "B": 0.857143})
    for elem in pcr4(m):
        assert pcr4(m)[elem] == pytest.approx(dempster(m)[elem], abs=1e-12)
    assert minc(m).masses == pcr4(m).masses


def test_pcr4_zadeh(zadeh):
    assert_bba(pcr4(zadeh), {"A": 0.478636, "B": 0.478636, "C": 0.042728})


def test_pcr4_with_null_conjunctive_masses():
    model = Model(Frame(["A", "B", "C", "D"]), SHAFER)
    m = matrix(model, {"B": 0.4, "C": 0.5, "D": 0.1}, {"A": 0.6, "C": 0.1, "D": 0.3})
    # the split of every conflict with a zero conjunctive side uses column sums
    assert_bba(pcr4(m), {"A": 0.330, "B": 0.172, "C": 0.324, "D": 0.174}, tol=1e-12)


def test_pcr4_example4(hybrid_pair):
    assert_bba(pcr4(hybrid_pair),
               {"A": 0.56842, "B": 0.15158, "C": 0.02, "A&C": 0.16, "B&C": 0.10})


def test_pcr4_vacuous_neutrality(shafer_ab):
    m = matrix(shafer_ab, *PAIR_103)
    padded = MassMatrix(list(m.sources) + [vacuous_bba(shafer_ab)])
    assert pcr4(m).masses == pcr4(padded).masses


# --- PCR5 ---------------------------------------------------------------------


def test_pcr5_pair_with_one_sided_conflict(shafer_ab):
    m1 = Bba(shafer_ab, {"A": 0.6, "A|B": 0.4})
    m2 = Bba(shafer_ab, {"B": 0.3, "A|B": 0.7})
    assert_bba(pcr5_pair(m1, m2), {"A": 0.54, "B": 0.18, "A|B": 0.28}, tol=1e-12)


def test_pcr5_pair_ignores_masses_outside_the_products(shafer_ab):
    m1 = Bba(shafer_ab, {"A": 0.6, "A|B": 0.4})
    m2 = Bba(shafer_ab, {"A": 0.2, "B": 0.3, "A|B": 0.5})
    assert_bba(pcr5_pair(m1, m2), {"A": 0.62, "B": 0.18, "A|B": 0.20}, tol=1e-12)


def test_pcr5_pair_with_crossed_conflict(shafer_ab):
    m1 = Bba(shafer_ab, {"A": 0.6, "B": 0.3, "A|B": 0.1})
    m2 = Bba(shafer_ab, {"A": 0.2, "B": 0.3, "A|B": 0.5})
    assert_bba(pcr5_pair(m1, m2), {"A": 0.584, "B": 0.366, "A|B": 0.05}, tol=1e-12)


def test_pcr5_zadeh(shafer_abc):
    m1 = Bba(shafer_abc, ZADEH[0])
    m2 = Bba(shafer_abc, ZADEH[1])
    assert_bba(pcr5_pair(m1, m2), {"A": 0.486, "B": 0.486, "C": 0.028}, tol=1e-12)


def test_pcr5_example4(hybrid_pair):
    assert_bba(pcr5_pair(hybrid_pair.sources[0], hybrid_pair.sources[1]),
               {"A": 0.51543, "B": 0.20457, "C": 0.02, "A&C": 0.16, "B&C": 0.10})


def test_pcr5_bayesian_pair(shafer_abc):
    assert_bba(pcr5_pair(Bba(shafer_abc, BAYES_93[0]), Bba(shafer_abc, BAYES_93[1])),
               {"A": 0.574571, "B": 0.335429, "C": 0.090000})


def test_pcr5_convergence_rows(shafer_ab):
    rows = {
        "0.1": {"A": 0.613333, "B": 0.236667, "A|B": 0.15},
        "0.01": {"A": 0.619905, "B": 0.185095, "A|B": 0.195},
        "0.001": {"A": 0.619999, "B": 0.180501, "A|B": 0.1995},
        "0.0001": {"A": 0.62, "B": 0.180050, "A|B": 0.19995},
    }
    for eps_text, want in rows.items():
        eps = Fraction(eps_text)
        m1 = Bba(shafer_ab, {"A": Fraction("0.6"), "B": eps, "A|B": Fraction("0.4") - eps})
        m2 = Bba(shafer_ab, {"A": Fraction("0.2"), "B": Fraction("0.3"), "A|B": Fraction("0.5")})
        assert_bba(pcr5_pair(m1, m2), want, tol=5e-6)


def test_pcr5_convergence_limit_is_exact(shafer_ab):
    limit = {"A": Fraction(62, 100), "B": Fraction(18, 100), "A|B": Fraction(20, 100)}
    # at epsilon = 0 the rational computation hits the limit exactly
    m1 = Bba(shafer_ab, {"A": Fraction("0.6"), "A|B": Fraction("0.4")})
    m2 = Bba(shafer_ab, {"A": Fraction("0.2"), "B": Fraction("0.3"), "A|B": Fraction("0.5")})
    exact = pcr5_pair(m1, m2, exact=True)
    assert {str(e): v for e, v in exact.items()} == {"A": limit["A"], "B": limit["B"],
                                                     "A|B": limit["A|B"]}
    # and the exact-rational path approaches it at rate O(eps)
    for exponent in (1, 2, 3, 4, 9, 12):
        eps = Fraction(1, 10 ** exponent)
        m1e = Bba(shafer_ab, {"A": Fraction("0.6"), "B": eps, "A|B": Fraction("0.4") - eps})
        got = pcr5_pair(m1e, m2, exact=True)
        for elem, value in got.items():
            assert abs(value - limit[str(elem)]) <= 10 * eps


def test_pcr5_multi_redistributes_each_product_on_its_own(shafer_ab):
    m = matrix(shafer_ab, *PAIR_103, *( {"A": 0.4, "B": 0.4, "A|B": 0.2},))
    diag = Diagnostics()
    result = pcr5_multi(m, diag=diag)
    a, b = shafer_ab.canonical("A"), shafer_ab.canonical("B")
    # product m1(A) m2(A|B) m3(B) = 0.12: A gets 0.072, B gets 0.048
    term_1 = next(t for t in diag.records
                  if isinstance(t.source, tuple)
                  and [str(f[0]) for f in t.source] == ["A", "A|B", "B"]
                  and t.destination == a)
    assert float(term_1.amount) == pytest.approx(0.072, abs=1e-12)
    # product m1(B) m2(A) m3(B) = 0.024: A gets 0.015, B gets 0.009
    shares = {str(r.destination): float(r.amount) for r in diag.records
              if isinstance(r.source, tuple)
              and [str(f[0]) for f in r.source] == ["B", "A", "B"]}
    assert shares == {"A": pytest.approx(0.015, abs=1e-12),
                      "B": pytest.approx(0.009, abs=1e-12)}
    assert result.total() == pytest.approx(1.0, abs=1e-12)
    assert_bba(result, {"A": 0.581127, "B": 0.408873, "A|B": 0.010}, tol=5e-7)


def test_pcr5_multi_two_sources_equals_pair(rng):
    for _ in range(60):
        _, sources = random_shafer_case(rng, max_s=2)
        multi = pcr5_multi(MassMatrix(sources))
        pair = pcr5_pair(sources[0], sources[1])
        assert multi.masses == pair.masses


@given(exact_matrices(min_s=2, max_s=2))
@settings(max_examples=150, deadline=None)
def test_pcr5_entry_points_agree_exactly_on_two_sources(m):
    runs = []
    for rule in (lambda d: pcr5_pair(m[0], m[1], diag=d),
                 lambda d: pcr5_multi(m, diag=d),
                 lambda d: pcr5_approximate(m, diag=d)):
        diag = Diagnostics()
        result = rule(diag)
        runs.append((result.masses, diag.records, diag.fallbacks))
    assert runs[0] == runs[1] == runs[2]


@given(exact_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_pcr5_entry_points_match_the_enumeration_reference(m, data):
    order = data.draw(st.permutations(range(1, m.s + 1)))
    ordered = [m[i - 1] for i in order]
    head = conjunctive(MassMatrix(ordered[:-1]))
    cases = [(lambda d: pcr5_multi(m, diag=d),
              [sorted(src.fractions().items()) for src in m.sources]),
             (lambda d: pcr5_approximate(m, order=order, diag=d),
              [list(head.masses.items()), sorted(ordered[-1].fractions().items())])]
    # the entry points' rational masses: the exact read-out, not the float one
    with patch.object(rules_pcr, "_finish", lambda model, out, exact=False, ints=None: _finish(model, out, True, ints)):
        for rule, focal_lists in cases:
            got, want = Diagnostics(), Diagnostics()
            assert rule(got) == pcr5_enumeration_reference(m.model, focal_lists, want)
            assert (got.records, got.fallbacks) == (want.records, want.fallbacks)


def test_pcr5_under_late_emptiness_rounds_each_mass_once():
    # every destination collapses onto D under the fusion model; summing
    # those parts as floats gave 0.9999999999999999 in one source order
    frame = Frame(["A", "B", "C", "D"])
    free = Model(frame, FREE)
    tables = ({"(A|B|C)&(B|D)": Fraction(43, 78), "B|D": Fraction(35, 78)},
              {"A": Fraction(1)},
              {"A&B": Fraction(7, 97), "A&(C|D)": Fraction(43, 97), "(A|D)&(B|C|D)": Fraction(47, 97)},
              {"B&(A|C|D)": Fraction(35, 39), "(A|D)&(B|D)": Fraction(2, 39), "(B|D)&(C|D)": Fraction(2, 39)})
    sources = [Bba(free, t) for t in tables]
    late = Model(frame, HYBRID, ["A", "B", "C"])
    for ordered in (sources, sources[::-1]):
        assert pcr5_multi(MassMatrix(ordered), late).masses == {late.canonical("D"): 1.0}


def test_pcr5_multi_three_sources_matches_reference(rng):
    checked = 0
    while checked < 100:
        model, sources = random_shafer_case(rng, max_s=3, min_s=3)
        got = pcr5_multi(MassMatrix(sources))
        reference = pcr5_reference(
            [{frozenset(model.frame.mask_str(e.clauses[0]).split("|")): v
              for e, v in src.fractions().items()} for src in sources])
        for key, value in reference.items():
            elem = model.canonical("|".join(sorted(key)))
            assert got[elem] == pytest.approx(float(value), abs=1e-12)
        assert got.total() == pytest.approx(1.0, abs=1e-12)
        checked += 1


def test_pcr5_approximate_three_sources(shafer_ab):
    m = matrix(shafer_ab, *PAIR_103, {"A": 0.4, "B": 0.4, "A|B": 0.2})
    diag = Diagnostics()
    result = pcr5_approximate(m, diag=diag)
    assert_bba(result, {"A": 0.536668, "B": 0.405332, "A|B": 0.058})
    assert diag.order == (1, 2, 3)


def test_pcr5_approximate_two_sources_is_exact_pair(shafer_ab):
    m = matrix(shafer_ab, *PAIR_103)
    assert pcr5_approximate(m).masses == pcr5_pair(m.sources[0], m.sources[1]).masses


def test_pcr5_approximate_depends_on_order(shafer_ab):
    m = matrix(shafer_ab, *PAIR_103, {"A": 0.4, "B": 0.4, "A|B": 0.2})
    default = pcr5_approximate(m)
    swapped = pcr5_approximate(m, order=(3, 1, 2))
    assert default.masses != swapped.masses
    with pytest.raises(ValueError):
        pcr5_approximate(m, order=(1, 1, 2))


def test_pcr5_vacuous_neutrality_uses_canonical_conflicts(shafer_ab):
    m1 = Bba(shafer_ab, PAIR_103[0])
    m2 = Bba(shafer_ab, PAIR_103[1])
    plain = pcr5_pair(m1, m2)
    padded = pcr5_multi(MassMatrix([m1, m2, vacuous_bba(shafer_ab)]))
    assert plain.masses == padded.masses


# --- target identification over a stream ----------------------------------------


def test_target_stream(shafer_ab):
    prior = Bba(shafer_ab, {"A": 1.0})
    obs1 = Bba(shafer_ab, {"A": 0.1, "B": 0.9})
    obs2 = Bba(shafer_ab, {"A": 0.4, "B": 0.6})

    step1 = pcr5_pair(prior, obs1)
    assert_bba(step1, {"A": 0.573684, "B": 0.426316})
    step2 = pcr5_pair(step1, obs2)
    assert_bba(step2, {"A": 0.480268, "B": 0.519732})

    first = pcr1(MassMatrix([prior, obs1]))
    assert_bba(first, {"A": 0.595, "B": 0.405}, tol=1e-12)
    for rule in (pcr2, pcr3, pcr4):
        assert rule(MassMatrix([prior, obs1])).masses == first.masses
    second = pcr1(MassMatrix([first, obs2]))
    assert_bba(second, {"A": 0.496203, "B": 0.503797})
    assert_bba(pcr4(MassMatrix([first, obs2])), {"A": 0.494802, "B": 0.505198})

    certain = minc(MassMatrix([prior, obs1]))
    assert_bba(certain, {"A": 1.0}, tol=1e-12)
    assert_bba(minc(MassMatrix([certain, obs2])), {"A": 1.0}, tol=1e-12)
    assert_bba(dempster(MassMatrix([certain, obs2])), {"A": 1.0}, tol=1e-12)


# --- shared behaviour ------------------------------------------------------------


ALL_PCR = (pcr1, pcr2, pcr3, pcr4, pcr5_multi)


def test_every_pcr_output_is_normalized(rng):
    for _ in range(30):
        _, sources = random_shafer_case(rng)
        m = MassMatrix(sources)
        for rule in ALL_PCR:
            result = rule(m)
            validate_bba(result)


def test_every_pcr_is_commutative(rng):
    for _ in range(30):
        _, sources = random_shafer_case(rng)
        forward = MassMatrix(sources)
        backward = MassMatrix(sources[::-1])
        for rule in ALL_PCR:
            assert rule(forward).masses == rule(backward).masses


def test_vacuous_neutrality_for_pcr2_to_pcr5(rng):
    for _ in range(30):
        model, sources = random_shafer_case(rng)
        plain = MassMatrix(sources)
        padded = MassMatrix(sources + [vacuous_bba(model)])
        for rule in (pcr2, pcr3, pcr4, pcr5_multi):
            assert rule(plain).masses == rule(padded).masses


def test_free_model_leaves_conjunctive_unchanged(rng):
    frame = Frame(["A", "B", "C"])
    free = Model(frame, FREE)
    m = matrix(free, {"A": 0.5, "B&C": 0.2, "A|B": 0.3}, {"A&B": 0.4, "C": 0.6})
    raw = {str(e): float(v) for e, v in conjunctive(m).reduced()[0].items()}
    for rule in ALL_PCR:
        got = {str(e): v for e, v in rule(m).items()}
        assert got == {k: pytest.approx(v, abs=1e-12) for k, v in raw.items()}


def test_conflict_transfers_are_conserved(rng, shafer_abc):
    m = matrix(shafer_abc, *BAYES_93)
    for rule in (pcr3, pcr4):
        diag = Diagnostics()
        rule(m, diag=diag)
        _, conflicts, _ = conjunctive(m).reduced()
        for conflict, mass in conflicts.items():
            moved = sum((r.amount for r in diag.records if r.source == conflict), Fraction(0))
            assert moved == mass
    diag = Diagnostics()
    pcr5_multi(m, diag=diag)
    total_moved = sum((r.amount for r in diag.records), Fraction(0))
    assert float(total_moved) == pytest.approx(0.62, abs=1e-12)
