"""Randomized checks on hybrid constraint models over hyper-power sets."""

import itertools
import random
from fractions import Fraction

import pytest

from massfusion import (
    Bba,
    FREE,
    Frame,
    HYBRID,
    MassMatrix,
    Model,
    TotalConflictError,
    conjunctive,
    dempster,
    dsm_hybrid,
    dubois_prade,
    minc,
    pcr1,
    pcr2,
    pcr3,
    pcr4,
    pcr5_multi,
    validate_bba,
    yager,
)
from massfusion.kernels import absorb_masks

from oracles import contains


def random_hybrid_case(rng):
    """A random hybrid model plus sources whose focal elements survive it."""
    n = rng.randint(2, 4)
    frame = Frame([chr(ord("A") + i) for i in range(n)])
    full = (1 << n) - 1
    while True:
        count = rng.randint(1, n)
        constraints = set()
        for _ in range(count):
            bits = rng.sample(range(n), rng.randint(2, n))
            mask_clauses = tuple(sorted(1 << b for b in bits))
            constraints.add(frame.element(mask_clauses))
        model = Model(frame, HYBRID, sorted(constraints))
        if not model.total_ignorance().empty:
            break
    # candidate focal elements: random canonical forms that are non-empty
    candidates = []
    for _ in range(40):
        clauses = [rng.randint(1, full) for _ in range(rng.randint(1, 3))]
        elem = model.reduce(frame.element(absorb_masks(clauses)))
        if not elem.empty:
            candidates.append(elem)
    candidates = sorted(set(candidates))
    sources = []
    for _ in range(rng.randint(2, 3)):
        focals = rng.sample(candidates, min(len(candidates), rng.randint(2, 4)))
        weights = [rng.randint(1, 1000) for _ in focals]
        total = sum(weights)
        sources.append(Bba(model, {e: Fraction(w, total) for e, w in zip(focals, weights)}))
    return model, sources


RULES = (
    ("dempster", dempster),
    ("yager", yager),
    ("dsm_hybrid", dsm_hybrid),
    ("minc_a", lambda m, model=None: minc(m, "a", model)),
    ("minc_b", lambda m, model=None: minc(m, "b", model)),
    ("pcr1", pcr1),
    ("pcr2", pcr2),
    ("pcr3", pcr3),
    ("pcr4", pcr4),
    ("pcr5", pcr5_multi),
)


def test_rules_stay_normalized_under_random_constraints():
    rng = random.Random(0x481D)
    for _ in range(120):
        model, sources = random_hybrid_case(rng)
        m = MassMatrix(sources)
        for name, rule in RULES:
            try:
                result = rule(m)
            except TotalConflictError:
                continue
            assert result.total() == pytest.approx(1.0, abs=1e-9), (name, model)
            validate_bba(result)
            assert rule(MassMatrix(sources[::-1])).masses == result.masses, name


def test_late_constraints_keep_everything_normalized():
    # sources committed under the free model, constraints arrive at fusion
    rng = random.Random(0xD1E)
    for _ in range(60):
        n = rng.randint(2, 4)
        frame = Frame([chr(ord("A") + i) for i in range(n)])
        free = Model(frame, FREE)
        full = (1 << n) - 1
        sources = []
        for _ in range(2):
            focals = set()
            while len(focals) < 3:
                clauses = [rng.randint(1, full) for _ in range(rng.randint(1, 2))]
                focals.add(frame.element(absorb_masks(clauses)))
            weights = [rng.randint(1, 100) for _ in focals]
            total = sum(weights)
            sources.append(Bba(free, {e: Fraction(w, total) for e, w in zip(focals, weights)}))
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        constraints = [frame.element(tuple(sorted((1 << i, 1 << j))))
                       for i, j in pairs[: rng.randint(1, len(pairs))]]
        late = Model(frame, HYBRID, constraints)
        m = MassMatrix(sources)
        for name, rule in RULES:
            if name == "dempster":
                continue  # total conflict is a legitimate outcome here
            result = rule(m, model=late)
            assert result.total() == pytest.approx(1.0, abs=1e-9), (name, late)


def test_collapsing_components_are_counted_once():
    # with A and C gone, the clauses A|B and B|C of a conflict both denote
    # B: the proportional split must weight B once, not per clause
    frame = Frame(["A", "B", "C", "D"])
    free = Model(frame, FREE)
    late = Model(frame, HYBRID, ["A", "C", "B&D"])
    m1 = Bba(free, {"A|B": 0.6, "B": 0.4})
    m2 = Bba(free, {"B|C": 1.0})
    m3 = Bba(free, {"D": 1.0})
    m = MassMatrix([m1, m2, m3])
    for rule in (pcr3, pcr4):
        result = rule(m, model=late)
        assert result["B"] == pytest.approx(2 / 3, abs=1e-12)
        assert result["D"] == pytest.approx(1 / 3, abs=1e-12)
    reassigned = pcr5_multi(m, model=late)
    assert set(str(e) for e in reassigned) == {"B", "D"}
    assert reassigned.total() == pytest.approx(1.0, abs=1e-12)
    assert pcr2(m, model=late).total() == pytest.approx(1.0, abs=1e-12)


def test_constraint_closure_is_downward():
    rng = random.Random(0xC105)
    for _ in range(40):
        model, _ = random_hybrid_case(rng)
        frame = model.frame
        full = (1 << frame.n) - 1
        for constrained in model.constraints:
            for _ in range(10):
                clauses = [rng.randint(1, full) for _ in range(rng.randint(1, 3))]
                elem = frame.element(absorb_masks(clauses))
                if contains(constrained, elem):
                    assert model.reduce(elem).empty, (constrained, elem)
