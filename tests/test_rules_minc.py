import itertools

import pytest

from massfusion import (
    Diagnostics,
    Frame,
    HYBRID,
    MassMatrix,
    Model,
    SHAFER,
    conjunctive,
    minc,
    vacuous_bba,
    validate_bba,
)

from conftest import assert_bba, matrix, random_shafer_case

# two sources over three exclusive hypotheses exercising every mixed element
THREE_PAIR = (
    {"t1": 0.3, "t2": 0.2, "t3": 0.1, "t1|t2": 0.1, "t1|t3": 0.1, "t1|t2|t3": 0.2},
    {"t1": 0.1, "t2": 0.1, "t3": 0.2, "t1|t3": 0.1, "t2|t3": 0.2, "t1|t2|t3": 0.3},
)


@pytest.fixture
def three_shafer():
    return Model(Frame(["t1", "t2", "t3"]), SHAFER)


@pytest.fixture
def three_matrix(three_shafer):
    return matrix(three_shafer, *THREE_PAIR)


def _masses(mapping):
    return {str(e): float(v) for e, v in mapping.items()}


def test_reallocation_moves_equivalent_mixed_elements(three_matrix):
    nonempty, conflicts, _ = conjunctive(three_matrix).reduced()
    got = _masses(nonempty)
    assert got["t1"] == pytest.approx(0.20)  # 0.19 + 0.01
    assert got["t2"] == pytest.approx(0.17)  # 0.15 + 0.02
    assert got["t3"] == pytest.approx(0.16)  # 0.14 + 0.02
    assert got["t1|t2"] == pytest.approx(0.03)
    assert got["t1|t3"] == pytest.approx(0.06)
    assert got["t2|t3"] == pytest.approx(0.04)
    assert got["t1|t2|t3"] == pytest.approx(0.06)
    leftovers = _masses(conflicts)
    assert leftovers == {
        "t1&t2": pytest.approx(0.05), "t1&t3": pytest.approx(0.07),
        "t2&t3": pytest.approx(0.05), "t1&(t2|t3)": pytest.approx(0.06),
        "t2&(t1|t3)": pytest.approx(0.03), "(t1|t2)&t3": pytest.approx(0.02),
    }


def test_reallocation_without_mixed_elements_is_identity(shafer_ab):
    m = matrix(shafer_ab, {"A": 0.6, "B": 0.4}, {"A": 0.5, "B": 0.5})
    raw = conjunctive(m)
    nonempty, conflicts, _ = raw.reduced()
    assert {**nonempty, **conflicts} == raw.masses


def test_version_a_result(three_matrix):
    result = minc(three_matrix, "a")
    assert_bba(result, {
        "t1": 0.298333, "t2": 0.231809, "t3": 0.221089,
        "t1|t2": 0.036150, "t1|t3": 0.076207, "t2|t3": 0.053405,
        "t1|t2|t3": 0.083007,
    })
    validate_bba(result)


def test_version_b_result(three_matrix):
    result = minc(three_matrix, "b")
    assert_bba(result, {
        "t1": 0.288889, "t2": 0.240195, "t3": 0.232733,
        "t1|t2": 0.038333, "t1|t3": 0.079167, "t2|t3": 0.051517,
        "t1|t2|t3": 0.069167,
    })
    validate_bba(result)


# transfer factors per conflict (destination -> share), at six decimals
FACTORS_A = {
    "t1&t2": {"t1": 0.025, "t2": 0.02125, "t1|t2": 0.00375},
    "t1&t3": {"t1": 0.033333, "t3": 0.026667, "t1|t3": 0.01},
    "t2&t3": {"t2": 0.022973, "t3": 0.021622, "t2|t3": 0.005405},
    "t1&(t2|t3)": {"t1": 0.04, "t2|t3": 0.008, "t1|t2|t3": 0.012},
    "t2&(t1|t3)": {"t2": 0.017586, "t1|t3": 0.006207, "t1|t2|t3": 0.006207},
    "t3&(t1|t2)": {"t3": 0.0128, "t1|t2": 0.0024, "t1|t2|t3": 0.0048},
}

FACTORS_B = {
    "t1&t2": {"t1": 0.025, "t2": 0.02125, "t1|t2": 0.00375},
    "t1&t3": {"t1": 0.033333, "t3": 0.026667, "t1|t3": 0.01},
    "t2&t3": {"t2": 0.022973, "t3": 0.021622, "t2|t3": 0.005405},
    "t1&(t2|t3)": {"t1": 0.016667, "t2": 0.014167, "t3": 0.013333, "t1|t2": 0.0025,
                   "t1|t3": 0.005, "t2|t3": 0.003333, "t1|t2|t3": 0.005},
    "t2&(t1|t3)": {"t1": 0.008333, "t2": 0.007083, "t3": 0.006667, "t1|t2": 0.00125,
                   "t1|t3": 0.0025, "t2|t3": 0.001667, "t1|t2|t3": 0.0025},
    "t3&(t1|t2)": {"t1": 0.005556, "t2": 0.004722, "t3": 0.004444, "t1|t2": 0.000833,
                   "t1|t3": 0.001667, "t2|t3": 0.001111, "t1|t2|t3": 0.001667},
}


@pytest.mark.parametrize("version,table", [("a", FACTORS_A), ("b", FACTORS_B)])
def test_transfer_factors(three_matrix, three_shafer, version, table):
    diag = Diagnostics()
    minc(three_matrix, version, diag=diag)
    for conflict_text, wants in table.items():
        source = three_shafer.canonical(conflict_text)
        got = {str(r.destination): float(r.amount)
               for r in diag.records if r.source == source}
        assert set(got) == set(wants), f"{version}/{conflict_text}"
        for dest, share in wants.items():
            assert got[dest] == pytest.approx(share, abs=5e-6), \
                f"{version}/{conflict_text} -> {dest}"


def test_each_conflict_is_conserved(three_matrix, three_shafer):
    for version in ("a", "b"):
        diag = Diagnostics()
        minc(three_matrix, version, diag=diag)
        _, conflicts, _ = conjunctive(three_matrix).reduced()
        for conflict, mass in conflicts.items():
            moved = sum(r.amount for r in diag.records if r.source == conflict)
            assert moved == mass


def test_two_element_pair(shafer_ab):
    m = matrix(shafer_ab, {"A": 0.6, "B": 0.3, "A|B": 0.1}, {"A": 0.2, "B": 0.3, "A|B": 0.5})
    for version in ("a", "b"):
        assert_bba(minc(m, version), {"A": 0.578948, "B": 0.355263, "A|B": 0.065789})


def test_versions_coincide_on_two_element_frames(rng):
    for _ in range(40):
        _, sources = random_shafer_case(rng, max_n=2)
        m = MassMatrix(sources)
        assert minc(m, "a").masses == minc(m, "b").masses


def test_zadeh_fallback_to_column_sums(shafer_abc):
    m = matrix(shafer_abc, {"A": 0.9, "C": 0.1}, {"B": 0.9, "C": 0.1})
    assert_bba(minc(m), {"A": 0.405, "B": 0.405, "C": 0.190}, tol=1e-12)
    assert_bba(minc(m, "b"), {"A": 0.405, "B": 0.405, "C": 0.190}, tol=1e-12)


def test_certain_prior_absorbs(shafer_ab):
    m = matrix(shafer_ab, {"A": 1.0}, {"A": 0.1, "B": 0.9})
    assert_bba(minc(m), {"A": 1.0}, tol=1e-12)


def test_outputs_are_valid_assignments(rng):
    for _ in range(40):
        _, sources = random_shafer_case(rng)
        m = MassMatrix(sources)
        for version in ("a", "b"):
            validate_bba(minc(m, version))


def test_vacuous_neutrality(rng):
    for _ in range(40):
        model, sources = random_shafer_case(rng)
        for version in ("a", "b"):
            plain = minc(MassMatrix(sources), version)
            padded = minc(MassMatrix(sources + [vacuous_bba(model)]), version)
            for elem in set(plain) | set(padded):
                assert plain[elem] == pytest.approx(padded[elem], abs=1e-9)


def test_source_order_is_irrelevant(rng):
    for _ in range(30):
        _, sources = random_shafer_case(rng)
        for version in ("a", "b"):
            assert (minc(MassMatrix(sources), version).masses
                    == minc(MassMatrix(sources[::-1]), version).masses)


# five sources on a 6-label hybrid frame where every 4-label intersection is
# empty: 14 partial conflicts of 8 to 15 components each
WIDE_FOCALS = (
    "(A|B)&(A|C)&(B|C)&(A|E)&(E|F)",
    "(A|D)&(C|D)&(A|B|E)&(A|F)&(C|F)&(D|F)",
    "(A|D)&(B|D)&(C|D)&(B|C|F)",
    "(A|B)&(B|E)&(C|E)&(D|E)&(B|F)&(D|F)",
    "(B|D)&(C|D)&(A|E)&(B|E)&(A|B|F)&(A|C|F)",
)


def test_version_a_reduces_each_union_of_components_once(monkeypatch):
    """Unions of components are label masks, at most 2^6 distinct ones per conflict, each reduced once."""
    frame = Frame(list("ABCDEF"))
    model = Model(frame, HYBRID, ["&".join(c) for c in itertools.combinations(frame.labels, 4)])
    m = matrix(model, *({f: 0.5, "A|B|C|D|E|F": 0.5} for f in WIDE_FOCALS))
    _, conflicts, _ = conjunctive(m).reduced()
    assert len(conflicts) == 14
    assert {len(c.clauses) for c in conflicts} == set(range(8, 16))
    calls = []
    reduce = Model.reduce
    monkeypatch.setattr(Model, "reduce", lambda self, e: calls.append(e) or reduce(self, e))
    got = minc(m, "a")
    assert len(calls) < 1500  # reducing the union of every subset of components separately: 79,782
    want = {name: 0.03125 for name in WIDE_FOCALS + (
        "A&C&F", "B&C&E", "B&D&(C|E)", "D&(A|B|E)&(A|F)&(C|F)",
        "(A|D)&(B|D)&(C|D)&(A|E)&(B|E)&(A|F)&(B|F)")}
    want.update({"D&E&F": 0.0625, "A|B|C|D|E|F": 0.625})
    assert got.masses == {model.canonical(name): v for name, v in want.items()}
