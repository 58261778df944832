import pytest

from massfusion import (
    Bba,
    BeliefFusionError,
    Diagnostics,
    FREE,
    Frame,
    HYBRID,
    MassMatrix,
    Model,
    NegativeMassError,
    SHAFER,
    TotalConflictError,
    conjunctive,
    dempster,
    dsm_hybrid,
    dubois_prade,
    smets,
    validate_bba,
    vacuous_bba,
    wao,
    weighted_operator,
    yager,
)

from conftest import assert_bba, matrix, random_shafer_case

ZADEH = ({"A": 0.9, "C": 0.1}, {"B": 0.9, "C": 0.1})
EX2 = ({"A": 0.7, "B": 0.1, "A|B": 0.2}, {"A": 0.5, "B": 0.4, "A|B": 0.1})


@pytest.fixture
def zadeh(shafer_abc):
    return matrix(shafer_abc, *ZADEH)


# --- Dempster ----------------------------------------------------------------


def test_dempster_on_zadeh_commits_everything_to_the_rare_leftover(zadeh):
    assert_bba(dempster(zadeh), {"C": 1.0}, tol=1e-12)


def test_dempster_pair(shafer_ab):
    result = dempster(matrix(shafer_ab, *EX2))
    assert_bba(result, {"A": 0.776119, "B": 0.194030, "A|B": 0.029851})


def test_dempster_total_conflict(shafer_ab):
    with pytest.raises(TotalConflictError):
        dempster(matrix(shafer_ab, {"A": 1.0}, {"B": 1.0}))


def test_dempster_is_scaled_conjunctive(rng):
    for _ in range(40):
        model, sources = random_shafer_case(rng)
        m = MassMatrix(sources)
        nonempty, _, k = conjunctive(m).reduced()
        if float(k) > 1 - 1e-9:
            continue
        result = dempster(m)
        for elem, mass in nonempty.items():
            assert result[elem] * (1 - float(k)) == pytest.approx(float(mass), abs=1e-12)


def test_dempster_vacuous_neutrality(rng):
    for _ in range(30):
        model, sources = random_shafer_case(rng)
        try:
            plain = dempster(MassMatrix(sources))
        except TotalConflictError:
            continue
        padded = dempster(MassMatrix(sources + [vacuous_bba(model)]))
        assert plain.masses == padded.masses


# --- Smets / Yager ------------------------------------------------------------


def test_smets_parks_conflict_on_empty(zadeh, shafer_abc):
    result = smets(zadeh)
    assert result[shafer_abc.frame.empty_element()] == pytest.approx(0.99)
    assert result["C"] == pytest.approx(0.01)


def test_smets_pair():
    shafer = Model(Frame(["t1", "t2"]), SHAFER)
    result = smets(matrix(shafer,
                          {"t1": 0.1, "t2": 0.2, "t1|t2": 0.7},
                          {"t1": 0.4, "t2": 0.3, "t1|t2": 0.3}))
    expected = {"t1": 0.35, "t2": 0.33, "t1|t2": 0.21, "∅": 0.11}
    assert_bba(result, expected, tol=1e-12)


def test_smets_without_conflict_is_conjunctive(shafer_ab):
    result = smets(matrix(shafer_ab, {"A": 0.5, "A|B": 0.5}, {"A": 0.3, "A|B": 0.7}))
    assert_bba(result, {"A": 0.65, "A|B": 0.35}, tol=1e-12)


def test_yager_moves_conflict_to_total_ignorance(zadeh):
    assert_bba(yager(zadeh), {"A|B|C": 0.99, "C": 0.01}, tol=1e-12)


def test_yager_pair(shafer_ab):
    result = yager(matrix(shafer_ab, *EX2))
    assert_bba(validate_bba(result), {"A": 0.52, "B": 0.13, "A|B": 0.35}, tol=1e-12)


def test_yager_without_conflict_is_conjunctive(shafer_ab):
    result = yager(matrix(shafer_ab, {"A": 0.5, "A|B": 0.5}, {"A": 0.3, "A|B": 0.7}))
    assert_bba(result, {"A": 0.65, "A|B": 0.35}, tol=1e-12)


# --- Dubois-Prade --------------------------------------------------------------


def test_dubois_prade_on_zadeh(zadeh):
    assert_bba(validate_bba(dubois_prade(zadeh)),
               {"A|B": 0.81, "A|C": 0.09, "B|C": 0.09, "C": 0.01}, tol=1e-12)


def test_dubois_prade_without_conflict_is_conjunctive(shafer_ab):
    result = dubois_prade(matrix(shafer_ab, {"A": 0.5, "A|B": 0.5}, {"A": 0.3, "A|B": 0.7}))
    assert_bba(result, {"A": 0.65, "A|B": 0.35}, tol=1e-12)


def test_dubois_prade_bayesian_pair(shafer_abc):
    # partial conflicts move to the unions of their factors
    result = dubois_prade(matrix(shafer_abc,
                                 {"A": 0.6, "B": 0.3, "C": 0.1},
                                 {"A": 0.4, "B": 0.4, "C": 0.2}))
    assert_bba(result, {"A": 0.24, "B": 0.12, "C": 0.02,
                        "A|B": 0.36, "A|C": 0.16, "B|C": 0.10}, tol=1e-12)


# --- hybrid DSm rule ------------------------------------------------------------


def test_hybrid_rule_matches_dubois_prade_on_zadeh(zadeh):
    assert dsm_hybrid(zadeh).masses == dubois_prade(zadeh).masses


def test_hybrid_rule_on_free_model_is_conjunctive(frame_abc):
    free = Model(frame_abc, FREE)
    m = matrix(free, *ZADEH)
    assert_bba(dsm_hybrid(m), {"A&B": 0.81, "A&C": 0.09, "B&C": 0.09, "C": 0.01}, tol=1e-12)


def test_hybrid_rule_reports_void_problem(frame_ab):
    base = Model(frame_ab, SHAFER)
    everything_dead = Model(frame_ab, HYBRID, ["A", "B"])
    m1 = Bba(base, {"A": 0.5, "B": 0.3, "A|B": 0.2})
    m2 = Bba(base, {"A": 0.4, "B": 0.5, "A|B": 0.1})
    result = dsm_hybrid(MassMatrix([m1, m2]), model=everything_dead)
    assert result[frame_ab.empty_element()] == pytest.approx(1.0)


def test_hybrid_rule_routes_to_theta0_when_enabled(frame_ab):
    base = Model(frame_ab, SHAFER)
    dead = Model(frame_ab, HYBRID, ["A", "B"], theta0=True)
    m1 = Bba(base, {"A": 0.6, "A|B": 0.4})
    m2 = Bba(base, {"B": 0.7, "A|B": 0.3})
    result = dsm_hybrid(MassMatrix([m1, m2]), model=dead)
    assert result[frame_ab.theta0()] == pytest.approx(1.0)


def test_hybrid_rule_is_a_valid_assignment(rng):
    for _ in range(30):
        _, sources = random_shafer_case(rng)
        validate_bba(dsm_hybrid(MassMatrix(sources)))


# --- weighted operator family ----------------------------------------------------


def test_weight_on_empty_reproduces_smets(shafer_ab):
    m = matrix(shafer_ab, *EX2)
    w = {shafer_ab.frame.empty_element(): 1.0}
    assert weighted_operator(m, w).masses == smets(m).masses


def test_weight_on_ignorance_reproduces_yager(shafer_ab):
    m = matrix(shafer_ab, *EX2)
    assert weighted_operator(m, {"A|B": 1.0}).masses == yager(m).masses


def test_average_weights_reproduce_static_wao(shafer_ab):
    m = matrix(shafer_ab, {"A": 0.3, "B": 0.4, "A|B": 0.3}, {"A": 0.5, "B": 0.1, "A|B": 0.4})
    weights = {"A": 0.40, "B": 0.25, "A|B": 0.35}
    assert weighted_operator(m, weights).masses == wao(m).masses


@pytest.mark.parametrize("weights, error, message", [
    ({1: 1.0}, TypeError, "bad mass key 1"),
    ({"A": True, "B": 0}, BeliefFusionError, "mass True on A is not a number"),
    ({"A": "1"}, BeliefFusionError, "mass '1' on A is not a number"),
    ({"A": float("nan"), "B": 1.0}, BeliefFusionError, "mass nan on A is not finite"),
    ({"A": -0.5, "B": 1.5}, NegativeMassError, "negative mass -0.5 on A"),
], ids=["int-key", "bool", "string", "nan", "negative"])
def test_weights_are_checked_like_masses(shafer_ab, weights, error, message):
    with pytest.raises(error, match=message):
        weighted_operator(matrix(shafer_ab, *EX2), weights)


def test_wao_pair(shafer_ab):
    m = matrix(shafer_ab, {"A": 0.3, "B": 0.4, "A|B": 0.3}, {"A": 0.5, "B": 0.1, "A|B": 0.4})
    assert_bba(validate_bba(wao(m)), {"A": 0.5120, "B": 0.2875, "A|B": 0.2005}, tol=1e-12)


def test_static_wao_is_shifted_by_a_vacuous_source(shafer_ab):
    m1 = Bba(shafer_ab, {"A": 0.3, "B": 0.4, "A|B": 0.3})
    m2 = Bba(shafer_ab, {"A": 0.5, "B": 0.1, "A|B": 0.4})
    plain = wao(MassMatrix([m1, m2]))
    padded = wao(MassMatrix([m1, m2, vacuous_bba(shafer_ab)]))
    assert_bba(padded, {"A": 0.481333, "B": 0.268333, "A|B": 0.250334})
    assert abs(padded["A"] - plain["A"]) > 1e-3  # vacuous input moves the result


def test_static_wao_under_dynamic_emptiness_loses_mass(frame_abc, shafer_abc):
    learned_b_empty = Model(frame_abc, HYBRID, ["A&B", "A&C", "B&C", "B"])
    m = matrix(shafer_abc, {"A": 0.3, "B": 0.4, "C": 0.3}, {"A": 0.5, "B": 0.1, "C": 0.4})
    diag = Diagnostics()
    result = wao(m, "static", model=learned_b_empty, diag=diag)
    assert_bba(result, {"A": 0.4420, "C": 0.3755}, tol=1e-12)
    assert result.total() == pytest.approx(0.8175, abs=1e-12)
    assert diag.sum_deficit == pytest.approx(0.1825, abs=1e-12)


def test_dynamic_wao_under_dynamic_emptiness_stays_normalized(frame_abc, shafer_abc):
    learned_b_empty = Model(frame_abc, HYBRID, ["A&B", "A&C", "B&C", "B"])
    m = matrix(shafer_abc, {"A": 0.3, "B": 0.4, "C": 0.3}, {"A": 0.5, "B": 0.1, "C": 0.4})
    result = wao(m, "dynamic", model=learned_b_empty)
    assert_bba(result, {"A": 0.5393, "C": 0.4607}, tol=5e-5)
    assert result.total() == pytest.approx(1.0, abs=1e-12)


def test_wao_on_zadeh(zadeh):
    assert_bba(wao(zadeh), {"A": 0.4455, "B": 0.4455, "C": 0.1090}, tol=1e-12)


def test_classic_rules_yield_valid_closed_world_outputs(rng):
    for _ in range(30):
        _, sources = random_shafer_case(rng)
        m = MassMatrix(sources)
        for rule in (yager, dubois_prade, dsm_hybrid, wao):
            validate_bba(rule(m))
