import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from massfusion import FREE, HYBRID, SHAFER, Bba, Frame, MassMatrix, Model
from massfusion.kernels import absorb_masks, intersect_canon, union_canon


def assert_bba(result, expected, tol=5e-5):
    """Compare a combined assignment against {expression: mass} within tol."""
    model = result.model
    seen = set()
    for key, want in expected.items():
        elem = model.frame.theta0() if key == "θ0" else (
            model.frame.empty_element() if key == "∅" else model.canonical(key))
        got = result[elem]
        assert got == pytest.approx(want, abs=tol), f"{key}: {got} != {want}"
        seen.add(elem)
    for elem, mass in result.items():
        if elem not in seen:
            assert mass == pytest.approx(0.0, abs=tol), f"unexpected mass on {elem}: {mass}"


def union_of(model, a, b):
    """The union of two elements, reduced under ``model``."""
    return model.reduce(model.frame.element(union_canon(a.clauses, b.clauses)))


def intersection_of(model, a, b):
    """The intersection of two elements, reduced under ``model``."""
    return model.reduce(model.frame.element(intersect_canon(a.clauses, b.clauses)))


def subsets(labels):
    out = []
    for r in range(1, len(labels) + 1):
        out.extend(itertools.combinations(labels, r))
    return out


def random_shafer_case(rng: random.Random, max_n=4, max_s=3, min_s=2, exact=True):
    """A random frame, Shafer model and list of valid random sources.

    With ``exact`` the masses are rationals summing to one exactly;
    otherwise they are normalized floats (valid within float error).
    """
    from fractions import Fraction

    n = rng.randint(2, max_n)
    labels = [chr(ord("A") + i) for i in range(n)]
    frame = Frame(labels)
    model = Model(frame, SHAFER)
    s = rng.randint(min_s, max_s)
    sources = []
    for _ in range(s):
        focals = rng.sample(subsets(labels), rng.randint(1, min(4, len(subsets(labels)))))
        weights = [rng.randint(1, 10 ** 6) for _ in focals]
        total = sum(weights)
        if exact:
            table = {"|".join(f): Fraction(w, total) for f, w in zip(focals, weights)}
        else:
            table = {"|".join(f): w / total for f, w in zip(focals, weights)}
        sources.append(Bba(model, table))
    return model, sources


@st.composite
def exact_matrices(draw, min_s=2, max_s=4):
    """A Shafer, free or hybrid matrix on 2-4 labels with exact rational masses.

    Focal elements are random reduced conjunctive forms; under a hybrid
    model some of them may be empty.
    """
    kind = draw(st.sampled_from([SHAFER, FREE, HYBRID]))
    n = draw(st.integers(2, 4))
    frame = Frame([chr(ord("A") + i) for i in range(n)])
    elements = st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3).map(
        lambda masks: frame.element(absorb_masks(masks)))
    constraints = draw(st.lists(elements, min_size=1, max_size=2)) if kind == HYBRID else ()
    model = Model(frame, kind, constraints)
    sources = []
    for _ in range(draw(st.integers(min_s, max_s))):
        focals = draw(st.lists(elements, min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 50), min_size=len(focals), max_size=len(focals)))
        total = sum(weights)
        sources.append(Bba(model, {e: Fraction(w, total) for e, w in zip(focals, weights)}))
    return MassMatrix(sources)


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def frame_ab():
    return Frame(["A", "B"])


@pytest.fixture
def shafer_ab(frame_ab):
    return Model(frame_ab, SHAFER)


@pytest.fixture
def frame_abc():
    return Frame(["A", "B", "C"])


@pytest.fixture
def shafer_abc(frame_abc):
    return Model(frame_abc, SHAFER)


def matrix(model, *tables):
    return MassMatrix([Bba(model, t) for t in tables])


def exact_factors(term, views):
    """A conflict term's factors with exact masses: each numerator over the denominator of the view it came from."""
    return tuple((elem, Fraction(n, den)) for (elem, n), (_, den) in zip(term.factors, views))
