from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from massfusion import (
    Bba,
    BeliefFusionError,
    MassMatrix,
    MassOnEmptyError,
    Model,
    NegativeMassError,
    NotNormalizedError,
    RULES,
    SHAFER,
    FREE,
    TotalConflictError,
    column_sum,
    conflict_ledger,
    conjunctive,
    run_rule,
    to_fraction,
    vacuous_bba,
    validate_bba,
)
from massfusion import bba

from conftest import exact_matrices, random_shafer_case
from oracles import conflict_ledger_reference


def test_validate_accepts_a_proper_assignment(shafer_ab):
    validate_bba(Bba(shafer_ab, {"A": 0.6, "B": 0.4}))


def test_validate_rejects_unnormalized(shafer_ab):
    with pytest.raises(NotNormalizedError) as err:
        validate_bba(Bba(shafer_ab, {"A": 0.5, "B": 0.4}))
    assert err.value.total == pytest.approx(0.9)


def test_validate_rejects_negative_mass(shafer_ab):
    with pytest.raises(NegativeMassError):
        Bba(shafer_ab, {"A": 1.2, "B": -0.2})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "heavy", None, [0.5], True, "0.5", 10 ** 400],
                         ids=["nan", "inf", "text", "null", "list", "boolean", "numeric-text",
                              "huge-integer"])
def test_construction_rejects_masses_that_are_not_finite_numbers(shafer_ab, value):
    with pytest.raises(BeliefFusionError, match="mass"):
        Bba(shafer_ab, {"A": value, "B": 0.5})


def test_validate_rejects_mass_on_empty_closed_world(shafer_ab):
    with pytest.raises(MassOnEmptyError):
        validate_bba(Bba(shafer_ab, {"A&B": 0.1, "A": 0.9}))


def test_open_world_allows_only_the_classical_empty_set(frame_ab):
    open_model = Model(frame_ab, SHAFER, world="open")
    validate_bba(Bba(open_model, {frame_ab.empty_element(): 0.2, "A": 0.8}))
    with pytest.raises(MassOnEmptyError):
        validate_bba(Bba(open_model, {"A&B": 0.2, "A": 0.8}))


def test_theta0_and_the_empty_set_read_by_name(frame_ab):
    """``θ0`` and ``∅`` are keys as elements print them; mass on θ0 needs a model that enables it."""
    b = Bba(Model(frame_ab, SHAFER, world="open"), {"θ0": 0.2, "A": 0.8})
    with pytest.raises(BeliefFusionError, match="^mass on 'θ0' needs a model with theta0 enabled$"):
        validate_bba(b)
    b = validate_bba(Bba(Model(frame_ab, SHAFER, world="open", theta0=True), {"θ0": 0.2, "∅": 0.1, "A": 0.7}))
    assert b["θ0"] == b[frame_ab.theta0()] == 0.2 and b["∅"] == b[frame_ab.empty_element()] == 0.1
    assert list(b) == [frame_ab.theta0(), frame_ab.empty_element(), b.model.canonical("A")]
    with pytest.raises(TypeError):
        b[1]


def test_equivalent_keys_merge(shafer_abc):
    b = Bba(shafer_abc, {"A|(B&C)": 0.3, "A": 0.2, "B": 0.5})
    assert b["A"] == pytest.approx(0.5)
    assert len(b) == 2


def test_tiny_masses_are_pruned(shafer_ab):
    b = Bba(shafer_ab, {"A": 1.0, "B": 1e-15})
    assert list(b) == [shafer_ab.canonical("A")]
    tiny = Fraction(1, 10 ** 13)
    b = Bba(shafer_ab, {"A": tiny, "B": 1 - tiny})
    assert list(b) == [shafer_ab.canonical("B")]


def test_vacuous_assignment(frame_ab, frame_abc):
    for frame in (frame_ab, frame_abc):
        model = Model(frame, SHAFER)
        v = validate_bba(vacuous_bba(model))
        assert v[frame.total_ignorance()] == 1.0
        assert len(v) == 1


# --- column sums -------------------------------------------------------------


def test_column_sums(shafer_ab):
    m1 = Bba(shafer_ab, {"A": 0.7, "B": 0.1, "A|B": 0.2})
    m2 = Bba(shafer_ab, {"A": 0.5, "B": 0.4, "A|B": 0.1})
    matrix = MassMatrix([m1, m2])
    assert column_sum(matrix, shafer_ab.canonical("A")) == pytest.approx(1.2)
    assert column_sum(matrix, shafer_ab.canonical("B")) == pytest.approx(0.5)
    with_vacuous = MassMatrix([m1, m2, vacuous_bba(shafer_ab)])
    assert column_sum(with_vacuous, shafer_ab.canonical("A|B")) == pytest.approx(1.3)


def test_single_source_column_is_its_own_mass(shafer_ab):
    m = Bba(shafer_ab, {"A": 0.3, "B": 0.7})
    assert column_sum(MassMatrix([m]), shafer_ab.canonical("A")) == pytest.approx(0.3)


def test_column_sums_add_over_concatenated_matrices(rng):
    for _ in range(25):
        model, sources = random_shafer_case(rng)
        left = MassMatrix(sources)
        right = MassMatrix([sources[0]])
        both = MassMatrix(left.sources + right.sources)
        for elem in left.column_sums():
            assert column_sum(both, elem) == pytest.approx(
                column_sum(left, elem) + column_sum(right, elem))


# --- conflict ledger ----------------------------------------------------------


def test_zadeh_conflict_breakdown(shafer_abc):
    m1 = Bba(shafer_abc, {"A": 0.9, "C": 0.1})
    m2 = Bba(shafer_abc, {"B": 0.9, "C": 0.1})
    _, conflicts, k = conjunctive(MassMatrix([m1, m2])).reduced()
    assert float(k) == pytest.approx(0.99)
    partials = {str(e): float(v) for e, v in conflicts.items()}
    assert partials == {"A&B": pytest.approx(0.81), "A&C": pytest.approx(0.09),
                        "B&C": pytest.approx(0.09)}


def test_bayesian_pair_conflict(shafer_abc):
    m1 = Bba(shafer_abc, {"A": 0.6, "B": 0.3, "C": 0.1})
    m2 = Bba(shafer_abc, {"A": 0.4, "B": 0.4, "C": 0.2})
    _, conflicts, k = conjunctive(MassMatrix([m1, m2])).reduced()
    assert float(k) == pytest.approx(0.62)
    partials = {str(e): float(v) for e, v in conflicts.items()}
    assert partials["A&B"] == pytest.approx(0.36)
    assert partials["A&C"] == pytest.approx(0.16)
    assert partials["B&C"] == pytest.approx(0.10)


def test_identical_certain_sources_have_no_conflict(shafer_ab):
    m = Bba(shafer_ab, {"A": 1.0})
    matrix = MassMatrix([m, m])
    assert conjunctive(matrix).reduced()[2] == 0
    assert not conflict_ledger(matrix).terms


def test_ledger_totals_agree_exactly(rng):
    for _ in range(60):
        model, sources = random_shafer_case(rng)
        matrix = MassMatrix(sources)
        ledger = conflict_ledger(matrix)
        nonempty, partials, k = conjunctive(matrix).reduced()
        assert sum(t.product for t in ledger.terms) == k
        assert sum(partials.values(), Fraction(0)) == k
        assert 0 <= float(k) <= 1 + 1e-12
        assert 1 - sum(nonempty.values()) == k


def test_involved_elements_appear_in_terms(rng):
    for _ in range(40):
        model, sources = random_shafer_case(rng)
        m = MassMatrix(sources)
        ledger = conflict_ledger(m)
        factor_elements = {e for t in ledger.terms for e, _ in t.factors}
        for elem in bba.involved(model, m.fractions()):
            assert elem in factor_elements


def test_total_ignorance_is_never_involved(shafer_ab):
    m1 = Bba(shafer_ab, {"A": 0.7, "B": 0.1, "A|B": 0.2})
    m2 = Bba(shafer_ab, {"A": 0.5, "B": 0.4, "A|B": 0.1})
    m = MassMatrix([m1, m2, vacuous_bba(shafer_ab)])
    assert shafer_ab.frame.total_ignorance() not in bba.involved(shafer_ab, m.fractions())
    assert {str(e) for e in bba.involved(shafer_ab, m.fractions())} == {"A", "B"}


def test_free_model_has_no_involvement(frame_abc, rng):
    model = Model(frame_abc, FREE)
    m1 = Bba(model, {"A": 0.9, "C": 0.1})
    m2 = Bba(model, {"B": 0.9, "C": 0.1})
    m = MassMatrix([m1, m2])
    assert conjunctive(m).reduced()[2] == 0
    assert not conflict_ledger(m).terms
    assert not bba.involved(model, m.fractions())


@given(exact_matrices())
@settings(max_examples=150, deadline=None)
def test_ledger_matches_the_flat_product_reference(matrix):
    ledger = conflict_ledger(matrix)
    terms, partials, k, involved = conflict_ledger_reference(matrix)
    assert [(t.factors, t.product, t.intersection) for t in ledger.terms] == terms
    assert list(ledger.terms) == sorted(ledger.terms, key=lambda t: [e.clauses for e, _ in t.factors])
    _, got_partials, got_k = conjunctive(matrix).reduced()
    assert list(got_partials.items()) == sorted(partials.items())
    assert got_k == k
    assert bba.involved(matrix.model, matrix.fractions()) == involved


# --- exact mass conversion ----------------------------------------------------


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200)
def test_decimal_masses_become_small_rationals(numer):
    x = numer / 10 ** 6
    frac = to_fraction(x)
    assert frac.denominator <= 10 ** 6
    assert float(frac) == pytest.approx(x, abs=1e-12)


@given(st.floats(0, 1, allow_nan=False))
@settings(max_examples=200)
def test_any_float_mass_roundtrips(x):
    assert abs(float(to_fraction(x)) - x) <= 1e-12


# --- integer views ------------------------------------------------------------


def over(pairs, den):
    """``(element, numerator)`` pairs over ``den`` as an ordered list of exact masses."""
    return [(elem, Fraction(n, den)) for elem, n in pairs]


@given(exact_matrices(), st.lists(st.floats(1e-9, 1), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_integer_views_equal_the_rational_views(m, floats):
    """Every integer view, read over its denominator, is its rational view, in the same order."""
    model = m.model
    focals = list(m[0])
    user = Bba(model, dict(zip(focals, floats)))  # snapped where a float is near a short decimal
    results = []
    for name in RULES:
        try:
            results.append(run_rule(name, m))  # rule results, fed back as the next step's sources
        except TotalConflictError:
            pass
    for b in [*m.sources, user, *results]:
        assert over(*b.numerators()) == list(b.fractions().items())
    raw = conjunctive(m)
    nonempty, conflicts, k = raw.numerators()
    want_nonempty, want_conflicts, want_k = raw.reduced()
    assert over(nonempty.items(), raw.den) == list(want_nonempty.items())
    assert over(conflicts.items(), raw.den) == list(want_conflicts.items())
    assert Fraction(k, raw.den) == want_k


@given(st.integers(0, 2 ** 64), st.integers(1, 2 ** 64), st.integers(1, 2 ** 4000), st.integers(0, 400))
@example(3, 7, 2 ** 4000 - 1, 0)
@example(1, 3, 10 ** 1000, 13)  # 1/3 * 1e-13
@example(1, 1, 1, 330)  # below the smallest normal float
@settings(max_examples=300)
def test_int_division_reads_out_float_of_the_fraction(p, q, scale, tiny):
    """``n / den`` on an unreduced pair is ``float(Fraction(n, den))``: correctly rounded, thousands of bits wide."""
    n, den = p * scale, q * scale * 10 ** tiny
    assert n / den == float(Fraction(n, den))
