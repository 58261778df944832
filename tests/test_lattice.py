import itertools

import pytest
from hypothesis import given, settings, strategies as st

from massfusion import (
    CapacityError,
    ExprSyntaxError,
    FREE,
    Frame,
    HYBRID,
    Model,
    SHAFER,
    UnknownLabelError,
    canonical_form,
    disjunctive_form,
    is_empty,
    parse_expr,
    shafer_as_hybrid,
)
from massfusion.lattice import InterOf, Label, UnionOf

from oracles import RegionOracle, prime_clauses_of_regions


@pytest.fixture
def free_abc(frame_abc):
    return Model(frame_abc, FREE)


# --- frames -----------------------------------------------------------------


def test_frame_rejects_degenerate_inputs():
    with pytest.raises(CapacityError):
        Frame([])
    with pytest.raises(CapacityError):
        Frame(["A", "A"])
    with pytest.raises(CapacityError):
        Frame(["A", "B|C"])
    with pytest.raises(CapacityError):
        Frame([f"h{i}" for i in range(17)])
    Frame([f"h{i}" for i in range(16)])  # at capacity is fine


def test_hyper_power_models_cap_at_six_labels():
    big = Frame([f"h{i}" for i in range(7)])
    with pytest.raises(CapacityError):
        Model(big, FREE)
    with pytest.raises(CapacityError):
        Model(big, HYBRID, ["h0&h1"])
    Model(big, SHAFER)  # power-set mode still allowed


# --- parsing ----------------------------------------------------------------


def test_parse_single_label(frame_ab):
    assert parse_expr("A", frame_ab) == Label("A")


def test_parse_union(frame_ab):
    assert parse_expr("A|B", frame_ab) == UnionOf(Label("A"), Label("B"))


def test_intersection_binds_tighter_than_union(frame_abc):
    assert parse_expr("A|B&C", frame_abc) == UnionOf(Label("A"), InterOf(Label("B"), Label("C")))
    assert parse_expr("(A|B)&C", frame_abc) == InterOf(UnionOf(Label("A"), Label("B")), Label("C"))


def test_parse_is_whitespace_insensitive(frame_abc):
    assert parse_expr(" ( A | B ) & C ", frame_abc) == parse_expr("(A|B)&C", frame_abc)


def test_parse_reports_offsets(frame_ab):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("A|", frame_ab)
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(A|B", frame_ab)
    assert err.value.offset == 4
    with pytest.raises(UnknownLabelError) as err:
        parse_expr("A|Q", frame_ab)
    assert err.value.label == "Q"
    assert err.value.offset == 2


def test_roundtrip_printing(frame_abc):
    model = Model(frame_abc, FREE)
    for text in ["A", "A|B", "A&B", "(A|B)&C", "(A|B)&(A|C)", "A&B&C"]:
        elem = canonical_form(text, model)
        assert canonical_form(str(elem), model) == elem


# --- canonical forms --------------------------------------------------------


def test_intersection_with_covering_union_is_dropped(frame_abc, free_abc):
    assert str(canonical_form("(A&B)&(A|B|C)", free_abc)) == "A&B"


def test_total_ignorance_is_neutral_for_intersection(frame_ab):
    model = Model(frame_ab, FREE)
    assert str(canonical_form("(A|B)&A", model)) == "A"


def test_shafer_collapse_of_exclusive_intersections(frame_ab):
    model = Model(frame_ab, SHAFER)
    elem = canonical_form("A&B&(A|B)", model)
    assert str(elem) == "A&B"
    assert elem.empty


def test_union_with_dead_intersection_reduces_to_label(frame_abc, shafer_abc):
    assert str(canonical_form("A|(B&C)", shafer_abc)) == "A"


def test_hybrid_constraint_empties_only_what_it_covers(frame_abc):
    model = Model(frame_abc, HYBRID, ["A&B"])
    assert is_empty(canonical_form("A&B", model), model)
    assert not is_empty(canonical_form("A&C", model), model)
    assert is_empty(canonical_form("A&B&C", model), model)


def test_hybrid_reduction_removes_dead_branches(frame_abc):
    model = Model(frame_abc, HYBRID, ["A&B"])
    assert str(canonical_form("A&(B|C)", model)) == "A&C"


def test_canonical_form_is_idempotent(frame_abc):
    for kind, constraints in [(FREE, ()), (SHAFER, ()), (HYBRID, ["A&B"])]:
        model = Model(frame_abc, kind, constraints)
        for text in ["A", "A|B", "A&B", "(A|B)&C", "A|(B&C)", "A&B&C"]:
            once = canonical_form(text, model)
            again = model.reduce(once)
            assert again == once
            assert again.empty == once.empty


def test_clauses_form_an_antichain(frame_abc):
    model = Model(frame_abc, FREE)
    for text in ["A&(A|B)", "(A|B)&(A|B|C)", "(A&B)|(A&B&C)", "((A|B)&C)|A"]:
        elem = canonical_form(text, model)
        for c1, c2 in itertools.permutations(elem.clauses, 2):
            assert c1 & ~c2 != 0, f"{text}: clause {c1} absorbed by {c2}"


def test_shafer_model_equals_its_hybrid_spelling(frame_abc):
    shafer = Model(frame_abc, SHAFER)
    hybrid = shafer_as_hybrid(frame_abc)
    for text in ["A", "A|B", "A&B", "A|(B&C)", "(A|B)&(A|C)", "A&B&C", "(A|B)&C"]:
        a = canonical_form(text, shafer)
        b = canonical_form(text, hybrid)
        assert a == b
        assert a.empty == b.empty


# --- disjunctive form -------------------------------------------------------


def test_disjunctive_form_of_singleton(frame_ab):
    assert str(disjunctive_form("A", frame_ab)) == "A"


def test_disjunctive_form_rewrites_intersection_to_union(frame_ab):
    assert str(disjunctive_form("A&B", frame_ab)) == "A|B"


def test_disjunctive_form_collects_all_labels(frame_abc):
    assert str(disjunctive_form("(A&B)|C", frame_abc)) == "A|B|C"


def test_disjunctive_form_never_empty_with_live_singleton(frame_abc):
    model = Model(frame_abc, HYBRID, ["A&B", "A&C", "B&C"])
    for text in ["A&B", "A&(B|C)", "(A|B)&C"]:
        u = disjunctive_form(text, frame_abc)
        assert not model.reduce(u).empty


# --- region-semantics oracle ------------------------------------------------


def _all_elements(model, labels):
    """Fixpoint of union/intersection over the singletons: the whole lattice."""
    frame = model.frame
    reached = {frame.singleton(lab) for lab in labels}
    while True:
        fresh = set()
        for a in reached:
            for b in reached:
                for combined in (model.element_union(a, b), model.element_intersection(a, b)):
                    if combined not in reached:
                        fresh.add(combined)
        if not fresh:
            return reached
        reached |= fresh


@pytest.mark.parametrize("n", [2, 3, 4])
def test_free_lattice_matches_region_semantics(n):
    labels = [chr(ord("A") + i) for i in range(n)]
    frame = Frame(labels)
    model = Model(frame, FREE)
    oracle = RegionOracle(labels)
    elements = _all_elements(model, labels)
    regions = {e: oracle.evaluate(str(e)) for e in elements}
    # distinct elements denote distinct region sets
    assert len(set(regions.values())) == len(elements)
    # both connectives commute with the oracle on every pair, so by
    # induction every expression tree over the lattice agrees with it
    for a in elements:
        for b in elements:
            assert regions[model.element_union(a, b)] == regions[a] | regions[b]
            inter = model.element_intersection(a, b)
            got = regions[a] & regions[b]
            if inter.empty:
                assert not got
            else:
                assert regions[inter] == got


def test_free_element_count_matches_known_lattice_sizes():
    # numbers of distinct non-empty elements closed under union/intersection
    sizes = {2: 4, 3: 18, 4: 166}
    for n, expected in sizes.items():
        labels = [chr(ord("A") + i) for i in range(n)]
        model = Model(Frame(labels), FREE)
        assert len(_all_elements(model, labels)) == expected


def test_prime_form_matches_oracle_reconstruction(frame_abc):
    model = Model(frame_abc, FREE)
    oracle = RegionOracle(frame_abc.labels)
    for text in ["A|(B&C)", "(A|B)&(A|C)", "(A&B)|(B&C)|(A&C)", "A&B&C", "A|B|C"]:
        elem = canonical_form(text, model)
        regs = oracle.evaluate(text)
        assert elem.clauses == prime_clauses_of_regions(regs, frame_abc.n)


@st.composite
def expressions(draw, labels, depth=4):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(labels))
    op = draw(st.sampled_from(["|", "&"]))
    left = draw(expressions(labels, depth=depth - 1))
    right = draw(expressions(labels, depth=depth - 1))
    return f"({left}{op}{right})"


@given(expressions(["A", "B", "C"]))
@settings(max_examples=300, deadline=None)
def test_random_expressions_agree_with_region_oracle(text):
    frame = Frame(["A", "B", "C"])
    model = Model(frame, FREE)
    oracle = RegionOracle(frame.labels)
    elem = canonical_form(text, model)
    assert oracle.evaluate(str(elem)) == oracle.evaluate(text)


@given(expressions(["A", "B", "C"]), expressions(["A", "B", "C"]))
@settings(max_examples=300, deadline=None)
def test_equal_region_sets_iff_equal_canonical_forms(t1, t2):
    frame = Frame(["A", "B", "C"])
    model = Model(frame, FREE)
    oracle = RegionOracle(frame.labels)
    same_regions = oracle.evaluate(t1) == oracle.evaluate(t2)
    same_canonical = canonical_form(t1, model) == canonical_form(t2, model)
    assert same_regions == same_canonical


@st.composite
def hybrid_reductions(draw):
    """Four to six labels, one to three random constraints, and an expression to reduce."""
    labels = [chr(ord("A") + i) for i in range(draw(st.integers(4, 6)))]
    constraints = draw(st.lists(expressions(labels, depth=2), min_size=1, max_size=3))
    return labels, constraints, draw(expressions(labels))


@given(hybrid_reductions())
@settings(max_examples=300, deadline=None)
def test_hybrid_reduce_matches_region_oracle(case):
    labels, constraints, text = case
    model = Model(Frame(labels), HYBRID, constraints)
    oracle = RegionOracle(labels)
    alive = oracle.universe.difference(*(oracle.evaluate(c) for c in constraints))
    regions = oracle.evaluate(text) & alive
    reduced = canonical_form(text, model)
    assert reduced.empty == (not regions)
    if regions:
        assert reduced.clauses == prime_clauses_of_regions(regions, len(labels))
