import itertools
import random
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings, strategies as st

from massfusion import (
    Bba,
    CanonicalElement,
    CapacityError,
    ExprSyntaxError,
    FREE,
    Frame,
    HYBRID,
    Model,
    SHAFER,
    UnknownLabelError,
    parse_expr,
    shafer_as_hybrid,
)
from massfusion.kernels import absorb_masks
from massfusion.lattice import ordered
from conftest import intersection_of, union_of
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
    # whitespace the parser splits on, and the names of the special elements
    for label in ("A\u00a0B", "A\x0bB", "A\x0cB", "A\u2003B", "∅", "θ0"):
        with pytest.raises(CapacityError, match="invalid label"):
            Frame([label, "C"])
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
    assert parse_expr("A", frame_ab) == frame_ab.singleton("A")
    assert parse_expr("A", frame_ab).clauses == (0b01,)


def test_parse_union(frame_ab):
    assert parse_expr("A|B", frame_ab).clauses == (0b11,)


def test_intersection_binds_tighter_than_union(frame_abc):
    loose = parse_expr("A|B&C", frame_abc)
    assert loose == parse_expr("A|(B&C)", frame_abc)
    assert loose != parse_expr("(A|B)&C", frame_abc)
    assert loose.clauses == (0b011, 0b101)  # (A|B)&(A|C)
    assert parse_expr("(A|B)&C", frame_abc).clauses == (0b011, 0b100)


def test_parse_is_whitespace_insensitive(frame_abc):
    assert parse_expr(" ( A | B ) & C ", frame_abc) == parse_expr("(A|B)&C", frame_abc)


def test_parse_reports_offsets(frame_ab):
    for text, message, offset in [
        ("", "empty expression", 0),
        ("&A", "expected a label or '('", 0),
        ("A)", "unexpected ')'", 1),
        ("A B", "unexpected 'B'", 2),
        ("()", "expected a label or '('", 1),
        ("A|", "expected a label or '('", 2),
        ("(A|B", "expected ')'", 4),
    ]:
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, frame_ab)
        assert str(err.value) == f"{message} (at offset {offset})", text
        assert err.value.offset == offset, text
    with pytest.raises(UnknownLabelError) as err:
        parse_expr("A|Q", frame_ab)
    assert str(err.value) == "unknown label 'Q' (at offset 2)"
    assert err.value.label == "Q"
    assert err.value.offset == 2


def test_parse_takes_any_depth(frame_ab):
    deep = "(" * 5000 + "A" + ")" * 5000
    single = parse_expr("A", frame_ab)
    assert parse_expr(deep, frame_ab) == single
    assert parse_expr("&".join(["A"] * 1000), frame_ab) == single
    assert Bba(Model(frame_ab, SHAFER), {deep: 1.0})["A"] == 1.0


def test_roundtrip_printing(frame_abc):
    model = Model(frame_abc, FREE)
    for text in ["A", "A|B", "A&B", "(A|B)&C", "(A|B)&(A|C)", "A&B&C"]:
        elem = model.canonical(text)
        assert model.canonical(str(elem)) == elem


def test_an_element_builds_its_name_once(frame_abc):
    model = Model(frame_abc, FREE, theta0=True)
    for elem in [model.canonical(text) for text in ["A|B", "A&B", "(A|B)&C", "(A|B)&(A|C)"]] + [
            frame_abc.theta0(), frame_abc.empty_element()]:
        text = str(elem)
        assert str(elem) is text


# --- canonical forms --------------------------------------------------------


def test_intersection_with_covering_union_is_dropped(frame_abc, free_abc):
    assert str(free_abc.canonical("(A&B)&(A|B|C)")) == "A&B"


def test_total_ignorance_is_neutral_for_intersection(frame_ab):
    model = Model(frame_ab, FREE)
    assert str(model.canonical("(A|B)&A")) == "A"


def test_shafer_collapse_of_exclusive_intersections(frame_ab):
    model = Model(frame_ab, SHAFER)
    elem = model.canonical("A&B&(A|B)")
    assert str(elem) == "A&B"
    assert elem.empty


def test_union_with_dead_intersection_reduces_to_label(frame_abc, shafer_abc):
    assert str(shafer_abc.canonical("A|(B&C)")) == "A"


def test_hybrid_constraint_empties_only_what_it_covers(frame_abc):
    model = Model(frame_abc, HYBRID, ["A&B"])
    assert model.reduce(parse_expr("A&B", frame_abc)).empty
    assert not model.reduce(parse_expr("A&C", frame_abc)).empty
    assert model.reduce(parse_expr("A&B&C", frame_abc)).empty


def test_hybrid_reduction_removes_dead_branches(frame_abc):
    model = Model(frame_abc, HYBRID, ["A&B"])
    assert str(model.canonical("A&(B|C)")) == "A&C"


def test_canonical_form_is_idempotent(frame_abc):
    for kind, constraints in [(FREE, ()), (SHAFER, ()), (HYBRID, ["A&B"])]:
        model = Model(frame_abc, kind, constraints)
        for text in ["A", "A|B", "A&B", "(A|B)&C", "A|(B&C)", "A&B&C"]:
            once = model.canonical(text)
            again = model.reduce(once)
            assert again == once
            assert again.empty == once.empty


def test_clauses_form_an_antichain(frame_abc):
    model = Model(frame_abc, FREE)
    for text in ["A&(A|B)", "(A|B)&(A|B|C)", "(A&B)|(A&B&C)", "((A|B)&C)|A"]:
        elem = model.canonical(text)
        for c1, c2 in itertools.permutations(elem.clauses, 2):
            assert c1 & ~c2 != 0, f"{text}: clause {c1} absorbed by {c2}"


def test_shafer_model_equals_its_hybrid_spelling(frame_abc):
    shafer = Model(frame_abc, SHAFER)
    hybrid = shafer_as_hybrid(frame_abc)
    for text in ["A", "A|B", "A&B", "A|(B&C)", "(A|B)&(A|C)", "A&B&C", "(A|B)&C"]:
        a = shafer.canonical(text)
        b = hybrid.canonical(text)
        assert a == b
        assert a.empty == b.empty


# --- disjunctive form -------------------------------------------------------


def _disjunctive(model, text):
    return model.disjunctive(parse_expr(text, model.frame).labels_mask())


def test_disjunctive_form_of_singleton(frame_ab):
    assert str(_disjunctive(Model(frame_ab, FREE), "A")) == "A"


def test_disjunctive_form_rewrites_intersection_to_union(frame_ab):
    assert str(_disjunctive(Model(frame_ab, FREE), "A&B")) == "A|B"


def test_disjunctive_form_collects_all_labels(free_abc):
    assert str(_disjunctive(free_abc, "(A&B)|C")) == "A|B|C"
    # the form is the element's: labels the canonical form absorbs are not collected
    assert _disjunctive(free_abc, "A|(A&B)") == _disjunctive(free_abc, "A")


def test_disjunctive_form_never_empty_with_live_singleton(frame_abc):
    model = Model(frame_abc, HYBRID, ["A&B", "A&C", "B&C"])
    for text in ["A&B", "A&(B|C)", "(A|B)&C"]:
        assert not _disjunctive(model, text).empty


def test_disjunctive_form_keeps_the_live_labels(frame_abc):
    model = Model(frame_abc, HYBRID, ["A"])
    assert str(_disjunctive(model, "A&B")) == "B"
    assert _disjunctive(model, "A").empty
    assert model.disjunctive(0) == frame_abc.empty_element() and model.disjunctive(0).empty


def test_a_disjunctive_form_already_reduced_builds_no_element(frame_abc, monkeypatch):
    model = Model(frame_abc, HYBRID, ["A&B"])
    first = model.disjunctive(0b011)
    built = []
    init = CanonicalElement.__init__
    monkeypatch.setattr(CanonicalElement, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert model.disjunctive(0b011) is first and str(first) == "A|B"
    assert built == []


# --- region-semantics oracle ------------------------------------------------


def _all_elements(model, labels):
    """Fixpoint of union/intersection over the singletons: the whole lattice."""
    frame = model.frame
    reached = {frame.singleton(lab) for lab in labels}
    while True:
        fresh = set()
        for a in reached:
            for b in reached:
                for combined in (union_of(model, a, b), intersection_of(model, a, b)):
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
            assert regions[union_of(model, a, b)] == regions[a] | regions[b]
            inter = intersection_of(model, a, b)
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
        elem = model.canonical(text)
        regs = oracle.evaluate(text)
        assert elem.clauses == prime_clauses_of_regions(regs, frame_abc.n)


def _regions_of(cellmask):
    """The region set a mask over regions stands for: region ``r`` is bit ``r - 1``."""
    return {r for r in range(1, cellmask.bit_length() + 1) if cellmask >> (r - 1) & 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prime_forms_match_the_oracle_on_every_region_set(n):
    model = Model(Frame([chr(ord("A") + i) for i in range(n)]), HYBRID)
    for cellmask in range(1, 1 << ((1 << n) - 1)):
        assert model._prime_clauses(cellmask) == prime_clauses_of_regions(_regions_of(cellmask), n)


@pytest.mark.parametrize("n", [5, 6])
def test_prime_forms_match_the_oracle_on_random_region_sets(n):
    """Arbitrary region sets, not only the up-sets expressions reach, from dense to a single region."""
    model = Model(Frame([chr(ord("A") + i) for i in range(n)]), HYBRID)
    rng, width = random.Random(n), (1 << n) - 1
    for _ in range(20_000):
        cellmask = reduce(and_, (rng.getrandbits(width) for _ in range(rng.randint(1, 6))))
        cellmask = cellmask or 1 << rng.randrange(width)
        assert model._prime_clauses(cellmask) == prime_clauses_of_regions(_regions_of(cellmask), n)


@st.composite
def expressions(draw, labels, depth=4, gap=st.just("")):
    """A fully parenthesized expression over ``labels``, with a ``gap`` drawn between any two tokens."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(labels))
    op = draw(st.sampled_from(["|", "&"]))
    left = draw(expressions(labels, depth - 1, gap))
    right = draw(expressions(labels, depth - 1, gap))
    g = [draw(gap) for _ in range(4)]
    return f"({g[0]}{left}{g[1]}{op}{g[2]}{right}{g[3]})"


@given(expressions(["A", "B", "C"]))
@settings(max_examples=300, deadline=None)
def test_random_expressions_agree_with_region_oracle(text):
    frame = Frame(["A", "B", "C"])
    model = Model(frame, FREE)
    oracle = RegionOracle(frame.labels)
    elem = model.canonical(text)
    assert oracle.evaluate(str(elem)) == oracle.evaluate(text)


# runs of whitespace, some of it outside ASCII, that str.isspace accepts
WHITESPACE = st.text(st.sampled_from(" \t\n\x0b\x0c\xa0\u2003"), max_size=3)


@given(expressions(["h0", "Δx", "B2"], gap=WHITESPACE), WHITESPACE, WHITESPACE)
@settings(max_examples=300, deadline=None)
def test_parser_splits_on_the_oracles_whitespace(text, lead, trail):
    """The parser's tokens are the oracle's (which splits on ``str.isspace``), labels of several characters too."""
    text = lead + text + trail
    frame = Frame(["h0", "Δx", "B2"])
    oracle = RegionOracle(frame.labels)
    assert oracle.evaluate(str(Model(frame, FREE).canonical(text))) == oracle.evaluate(text)


@given(expressions(["A", "B", "C"]), expressions(["A", "B", "C"]))
@settings(max_examples=300, deadline=None)
def test_equal_region_sets_iff_equal_canonical_forms(t1, t2):
    frame = Frame(["A", "B", "C"])
    model = Model(frame, FREE)
    oracle = RegionOracle(frame.labels)
    same_regions = oracle.evaluate(t1) == oracle.evaluate(t2)
    same_canonical = model.canonical(t1) == model.canonical(t2)
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
    reduced = model.canonical(text)
    assert reduced.empty == (not regions)
    if regions:
        assert reduced.clauses == prime_clauses_of_regions(regions, len(labels))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ordered_keeps_the_element_order(data):
    n = data.draw(st.integers(1, 5))
    frame = Frame([f"h{i}" for i in range(n)])
    clauses = st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=4).map(absorb_masks)
    keys = data.draw(st.lists(st.one_of(st.just(()), st.just((0,)), clauses), max_size=40))  # θ0 and ∅
    masses = {frame.element(c): i for i, c in enumerate(keys)}
    assert list(ordered(masses)) == sorted(masses)
    assert ordered(masses) == masses
