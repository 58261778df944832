"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own report.
"""

import time
from fractions import Fraction

from massfusion import (
    Bba,
    Diagnostics,
    FREE,
    Frame,
    HYBRID,
    MassMatrix,
    Model,
    SHAFER,
    TotalConflictError,
    column_sum,
    conjunctive,
    dempster,
    dsm_hybrid,
    dubois_prade,
    minc,
    pcr1,
    pcr2,
    pcr3,
    pcr4,
    pcr5_approximate,
    pcr5_multi,
    pcr5_pair,
    smets,
    vacuous_bba,
    validate_bba,
    wao,
    yager,
)

from conftest import intersection_of, random_shafer_case, union_of
from oracles import RegionOracle, pcr5_reference
from test_rules_minc import FACTORS_A, FACTORS_B, THREE_PAIR

import random


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


# --- shared fixtures ----------------------------------------------------------

AB = Frame(["A", "B"])
ABC = Frame(["A", "B", "C"])
S_AB = Model(AB, SHAFER)
S_ABC = Model(ABC, SHAFER)

ZADEH = (Bba(S_ABC, {"A": 0.9, "C": 0.1}), Bba(S_ABC, {"B": 0.9, "C": 0.1}))
PAIR_82 = (Bba(S_AB, {"A": 0.7, "B": 0.1, "A|B": 0.2}),
           Bba(S_AB, {"A": 0.5, "B": 0.4, "A|B": 0.1}))
PAIR_103 = (Bba(S_AB, {"A": 0.6, "B": 0.3, "A|B": 0.1}),
            Bba(S_AB, {"A": 0.2, "B": 0.3, "A|B": 0.5}))
BAYES = (Bba(S_ABC, {"A": 0.6, "B": 0.3, "C": 0.1}),
         Bba(S_ABC, {"A": 0.4, "B": 0.4, "C": 0.2}))
THIRD = Bba(S_AB, {"A": 0.4, "B": 0.4, "A|B": 0.2})
ONE_SIDED = (Bba(S_AB, {"A": 0.6, "A|B": 0.4}), Bba(S_AB, {"B": 0.3, "A|B": 0.7}))
HALF_SIDED = (Bba(S_AB, {"A": 0.6, "A|B": 0.4}), Bba(S_AB, {"A": 0.2, "B": 0.3, "A|B": 0.5}))
HYB = Model(ABC, HYBRID, ["A&B"])
HYB_PAIR = (Bba(HYB, {"A": 0.5, "B": 0.4, "C": 0.1}), Bba(HYB, {"A": 0.6, "B": 0.2, "C": 0.2}))
B_DIES = Model(ABC, HYBRID, ["A&B", "A&C", "B&C", "B"])
WITNESSES = (Bba(S_ABC, {"A": 0.3, "B": 0.4, "C": 0.3}),
             Bba(S_ABC, {"A": 0.5, "B": 0.1, "C": 0.4}))
PRIOR = Bba(S_AB, {"A": 1.0})
OBS_1 = Bba(S_AB, {"A": 0.1, "B": 0.9})
OBS_2 = Bba(S_AB, {"A": 0.4, "B": 0.6})

T5 = 5e-5   # values published with 5+ decimals
T4 = 5e-4   # 4 decimals
T3 = 5e-3   # 3 decimals


def _check(result, expected, tol, case, failures):
    for key, want in expected.items():
        if key == "∅":
            elem = result.model.frame.empty_element()
        else:
            elem = result.model.canonical(key)
        got = result[elem]
        if abs(got - want) > tol:
            failures.append(f"{case}[{key}]: got {got!r}, want {want} ± {tol}")


def golden_corpus():
    """Every printed combination result, as (case, producer, expected, tol)."""
    m82 = MassMatrix(PAIR_82)
    m103 = MassMatrix(PAIR_103)
    mb = MassMatrix(BAYES)
    mz = MassMatrix(ZADEH)
    mhyb = MassMatrix(HYB_PAIR)
    m1s = MassMatrix(ONE_SIDED)
    mhs = MassMatrix(HALF_SIDED)
    m3 = MassMatrix((*PAIR_103, THIRD))
    mw = MassMatrix(WITNESSES)
    free_abc = Model(ABC, FREE)
    mz_free = MassMatrix((Bba(free_abc, {"A": 0.9, "C": 0.1}),
                          Bba(free_abc, {"B": 0.9, "C": 0.1})))
    two = Model(Frame(["t1", "t2"]), SHAFER)
    pair_222 = MassMatrix((Bba(two, {"t1": 0.1, "t2": 0.2, "t1|t2": 0.7}),
                           Bba(two, {"t1": 0.4, "t2": 0.3, "t1|t2": 0.3})))
    free_t = Model(Frame(["t1", "t2"]), FREE)
    pair_222f = MassMatrix((Bba(free_t, {"t1": 0.1, "t2": 0.2, "t1|t2": 0.7}),
                            Bba(free_t, {"t1": 0.4, "t2": 0.3, "t1|t2": 0.3})))
    wao_pair = MassMatrix((Bba(two, {"t1": 0.3, "t2": 0.4, "t1|t2": 0.3}),
                           Bba(two, {"t1": 0.5, "t2": 0.1, "t1|t2": 0.4})))
    wao_vba = MassMatrix(tuple(wao_pair.sources) + (vacuous_bba(two),))
    three = Model(Frame(["t1", "t2", "t3"]), SHAFER)
    minc_pair = MassMatrix((Bba(three, THREE_PAIR[0]), Bba(three, THREE_PAIR[1])))
    bayes2d = MassMatrix((Bba(S_AB, {"A": 0.6, "B": 0.4}), Bba(S_AB, {"A": 0.1, "B": 0.9})))
    four = Model(Frame(["A", "B", "C", "D"]), SHAFER)
    nulls = MassMatrix((Bba(four, {"B": 0.4, "C": 0.5, "D": 0.1}),
                        Bba(four, {"A": 0.6, "C": 0.1, "D": 0.3})))
    eps = Fraction(1, 100)
    table8_src = (Bba(S_AB, {"A": Fraction("0.6"), "B": eps, "A|B": Fraction("0.4") - eps}),
                  Bba(S_AB, {"A": Fraction("0.2"), "B": Fraction("0.3"), "A|B": Fraction("0.5")}))

    step1_pcr5 = pcr5_pair(PRIOR, OBS_1)
    step1_pcr1 = pcr1(MassMatrix((PRIOR, OBS_1)))
    step1_minc = minc(MassMatrix((PRIOR, OBS_1)))

    def conj(matrix, model=None):
        def build():
            nonempty, conflicts, _ = conjunctive(matrix, model).reduced()
            out = {e: float(v) for e, v in nonempty.items()}
            out.update({e: float(v) for e, v in conflicts.items()})
            return Bba(model or matrix.model, out)
        return build

    def conj_free(matrix):
        # the combination before any constraint is applied, every mixed
        # element kept apart
        def build():
            free = Model(matrix.model.frame, FREE)
            return Bba(free, {e: float(v) for e, v in conjunctive(matrix).masses.items()})
        return build

    return [
        # conjunctive consensus
        ("conjunctive/pair", conj(pair_222),
         {"t1": 0.35, "t2": 0.33, "t1|t2": 0.21, "t1&t2": 0.11}, T5),
        ("conjunctive/pair-free", conj(pair_222f),
         {"t1": 0.35, "t2": 0.33, "t1|t2": 0.21, "t1&t2": 0.11}, T5),
        ("conjunctive/three-sources", conj(m3),
         {"A": 0.284, "B": 0.182, "A|B": 0.010, "A&B": 0.524}, T5),
        ("conjunctive/minc-table", conj_free(minc_pair),
         {"t1": 0.19, "t2": 0.15, "t3": 0.14, "t1|t2": 0.03, "t1|t3": 0.06,
          "t2|t3": 0.04, "t1|t2|t3": 0.06, "t1&t2": 0.05, "t1&t3": 0.07,
          "t2&t3": 0.05, "t1&(t2|t3)": 0.06, "t2&(t1|t3)": 0.03,
          "(t1|t2)&t3": 0.02, "t1|(t2&t3)": 0.01, "t2|(t1&t3)": 0.02,
          "t3|(t1&t2)": 0.02}, T5),
        ("conjunctive/target-step1", conj(MassMatrix((PRIOR, OBS_1))),
         {"A": 0.1, "A&B": 0.9}, T5),
        # Dempster
        ("dempster/zadeh", lambda: dempster(mz), {"C": 1.0}, T5),
        ("dempster/ex2", lambda: dempster(m82),
         {"A": 0.776119, "B": 0.194030, "A|B": 0.029851}, T5),
        ("dempster/ex3-pcr5", lambda: dempster(m103),
         {"A": 0.579, "B": 0.355, "A|B": 0.066}, T3),
        ("dempster/ex1", lambda: dempster(mb),
         {"A": 0.631579, "B": 0.315789, "C": 0.052632}, T5),
        # Smets / Yager / Dubois-Prade / hybrid rule
        ("smets/zadeh", lambda: smets(mz), {"∅": 0.99, "C": 0.01}, T5),
        ("yager/zadeh", lambda: yager(mz), {"A|B|C": 0.99, "C": 0.01}, T5),
        ("dubois-prade/zadeh", lambda: dubois_prade(mz),
         {"A|B": 0.81, "A|C": 0.09, "B|C": 0.09, "C": 0.01}, T5),
        ("dsm-hybrid/zadeh", lambda: dsm_hybrid(mz),
         {"A|B": 0.81, "A|C": 0.09, "B|C": 0.09, "C": 0.01}, T5),
        ("dsm-classic/zadeh-free", lambda: dsm_hybrid(mz_free),
         {"A&B": 0.81, "A&C": 0.09, "B&C": 0.09, "C": 0.01}, T5),
        # weighted averaging
        ("wao/pair", lambda: wao(wao_pair),
         {"t1": 0.5120, "t2": 0.2875, "t1|t2": 0.2005}, T4),
        ("wao/vacuous-shift", lambda: wao(wao_vba),
         {"t1": 0.481333, "t2": 0.268333, "t1|t2": 0.250334}, T5),
        ("wao/static-degenerate", lambda: wao(mw, "static", model=B_DIES),
         {"A": 0.4420, "C": 0.3755}, T4),
        ("wao/dynamic-degenerate", lambda: wao(mw, "dynamic", model=B_DIES),
         {"A": 0.5393, "C": 0.4607}, T4),
        ("wao/zadeh", lambda: wao(mz), {"A": 0.4455, "B": 0.4455, "C": 0.1090}, T4),
        # minC
        ("minc/version-a", lambda: minc(minc_pair, "a"),
         {"t1": 0.2983, "t2": 0.2318, "t3": 0.2211, "t1|t2": 0.0362,
          "t1|t3": 0.0762, "t2|t3": 0.0534, "t1|t2|t3": 0.0830}, T4),
        ("minc/version-b", lambda: minc(minc_pair, "b"),
         {"t1": 0.2889, "t2": 0.2402, "t3": 0.2327, "t1|t2": 0.0383,
          "t1|t3": 0.0792, "t2|t3": 0.0515, "t1|t2|t3": 0.0692}, T4),
        ("minc/2d-pair", lambda: minc(m103),
         {"A": 0.578948, "B": 0.355263, "A|B": 0.065789}, T5),
        ("minc/zadeh", lambda: minc(mz), {"A": 0.405, "B": 0.405, "C": 0.190}, T3),
        ("minc/ex1-equals-pcr4", lambda: minc(mb),
         {"A": 0.627692, "B": 0.325714, "C": 0.046594}, T5),
        ("minc/ex2-equals-dempster", lambda: minc(m82),
         {"A": 0.776119, "B": 0.194030, "A|B": 0.029851}, T5),
        # PCR1
        ("pcr1/late-emptiness", lambda: pcr1(mw, model=B_DIES),
         {"A": 0.5393, "C": 0.4607}, T4),
        ("pcr1/pair", lambda: pcr1(m82), {"A": 0.7180, "B": 0.2125, "A|B": 0.0695}, T4),
        ("pcr1/zadeh", lambda: pcr1(mz), {"A": 0.4455, "B": 0.4455, "C": 0.1090}, T4),
        ("pcr1/bayes", lambda: pcr1(mb), {"A": 0.550, "B": 0.337, "C": 0.113}, T3),
        ("pcr1/one-sided", lambda: pcr1(m1s), {"A": 0.474, "B": 0.147, "A|B": 0.379}, T3),
        ("pcr1/half-sided", lambda: pcr1(mhs), {"A": 0.572, "B": 0.147, "A|B": 0.281}, T3),
        ("pcr1/ex3-pcr5", lambda: pcr1(m103), {"A": 0.536, "B": 0.342, "A|B": 0.122}, T3),
        ("pcr1/ex4-hybrid", lambda: pcr1(mhyb),
         {"A": 0.487, "B": 0.182, "C": 0.071, "A&C": 0.16, "B&C": 0.10}, T3),
        # PCR2
        ("pcr2/pair", lambda: pcr2(m82), {"A": 0.752941, "B": 0.227059, "A|B": 0.02}, T5),
        ("pcr2/vacuous-neutral", lambda: pcr2(MassMatrix(PAIR_82 + (vacuous_bba(S_AB),))),
         {"A": 0.752941, "B": 0.227059, "A|B": 0.02}, T5),
        ("pcr2/zadeh", lambda: pcr2(mz), {"A": 0.4455, "B": 0.4455, "C": 0.1090}, T4),
        ("pcr2/ex3-pcr5", lambda: pcr2(m103), {"A": 0.577, "B": 0.373, "A|B": 0.05}, T3),
        ("pcr2/half-sided", lambda: pcr2(mhs), {"A": 0.631, "B": 0.169, "A|B": 0.20}, T3),
        ("pcr2/ex4-hybrid", lambda: pcr2(mhyb),
         {"A": 0.52, "B": 0.20, "C": 0.02, "A&C": 0.16, "B&C": 0.10}, T5),
        # PCR3
        ("pcr3/bayes", lambda: pcr3(mb), {"A": 0.574842, "B": 0.338235, "C": 0.086923}, T5),
        ("pcr3/vacuous-neutral", lambda: pcr3(MassMatrix(BAYES + (vacuous_bba(S_ABC),))),
         {"A": 0.574842, "B": 0.338235, "C": 0.086923}, T5),
        ("pcr3/zadeh", lambda: pcr3(mz), {"A": 0.478636, "B": 0.478636, "C": 0.042728}, T5),
        ("pcr3/ex4-hybrid", lambda: pcr3(mhyb),
         {"A": 0.52, "B": 0.20, "C": 0.02, "A&C": 0.16, "B&C": 0.10}, T5),
        # PCR4
        ("pcr4/2d-pair", lambda: pcr4(m103), {"A": 0.5887, "B": 0.3613, "A|B": 0.05}, T4),
        ("pcr4/nulls", lambda: pcr4(nulls),
         {"A": 0.330, "B": 0.172000, "C": 0.324, "D": 0.174000}, T5),
        ("pcr4/2d-bayesian-dempster", lambda: pcr4(bayes2d),
         {"A": 0.142857, "B": 0.857143}, T5),
        ("pcr4/zadeh", lambda: pcr4(mz), {"A": 0.478636, "B": 0.478636, "C": 0.042728}, T5),
        ("pcr4/ex1", lambda: pcr4(mb), {"A": 0.627692, "B": 0.325714, "C": 0.046594}, T5),
        ("pcr4/ex2", lambda: pcr4(m82), {"A": 0.784, "B": 0.196, "A|B": 0.02}, T5),
        ("pcr4/one-sided", lambda: pcr4(m1s), {"A": 0.56, "B": 0.16, "A|B": 0.28}, T5),
        ("pcr4/half-sided", lambda: pcr4(mhs), {"A": 0.645, "B": 0.155, "A|B": 0.20}, T3),
        ("pcr4/ex3-pcr5", lambda: pcr4(m103), {"A": 0.589, "B": 0.361, "A|B": 0.05}, T3),
        ("pcr4/ex4-hybrid", lambda: pcr4(mhyb),
         {"A": 0.56842, "B": 0.15158, "C": 0.02, "A&C": 0.16, "B&C": 0.10}, T4),
        # PCR5
        ("pcr5/one-sided", lambda: pcr5_pair(*ONE_SIDED),
         {"A": 0.54, "B": 0.18, "A|B": 0.28}, T5),
        ("pcr5/half-sided", lambda: pcr5_pair(*HALF_SIDED),
         {"A": 0.62, "B": 0.18, "A|B": 0.20}, T5),
        ("pcr5/crossed", lambda: pcr5_pair(*PAIR_103),
         {"A": 0.584, "B": 0.366, "A|B": 0.05}, T5),
        ("pcr5/zadeh", lambda: pcr5_pair(*ZADEH), {"A": 0.486, "B": 0.486, "C": 0.028}, T5),
        ("pcr5/ex1", lambda: pcr5_pair(*BAYES),
         {"A": 0.574571, "B": 0.335429, "C": 0.090000}, T5),
        ("pcr5/ex2", lambda: pcr5_pair(*PAIR_82),
         {"A": 0.739849, "B": 0.240151, "A|B": 0.02}, T5),
        ("pcr5/ex4-hybrid", lambda: pcr5_pair(*HYB_PAIR),
         {"A": 0.51543, "B": 0.20457, "C": 0.02, "A&C": 0.16, "B&C": 0.10}, T4),
        ("pcr5/perturbed", lambda: pcr5_pair(*table8_src),
         {"A": 0.619905, "B": 0.185095, "A|B": 0.195}, T5),
        ("pcr5/approx-3-sources", lambda: pcr5_approximate(m3),
         {"A": 0.536668, "B": 0.405332, "A|B": 0.058000}, T5),
        # target identification sequence
        ("target/pcr5-step1", lambda: step1_pcr5, {"A": 0.573684, "B": 0.426316}, T5),
        ("target/pcr5-step2", lambda: pcr5_pair(step1_pcr5, OBS_2),
         {"A": 0.480268, "B": 0.519732}, T5),
        ("target/pcr14-step1", lambda: step1_pcr1, {"A": 0.595, "B": 0.405}, T5),
        ("target/pcr13-step2", lambda: pcr1(MassMatrix((step1_pcr1, OBS_2))),
         {"A": 0.496203, "B": 0.503797}, T5),
        ("target/pcr4-step2", lambda: pcr4(MassMatrix((step1_pcr1, OBS_2))),
         {"A": 0.494802, "B": 0.505198}, T5),
        ("target/minc-absorbs", lambda: step1_minc, {"A": 1.0}, T5),
        ("target/minc-step2", lambda: minc(MassMatrix((step1_minc, OBS_2))), {"A": 1.0}, T5),
    ]


def test_criterion_1_golden_corpus():
    start = time.perf_counter()
    failures = []

    # canonical-form and conflict-structure facts that frame the corpus
    free_abc = Model(ABC, FREE)
    if str(free_abc.canonical("(A&B)&(A|B|C)")) != "A&B":
        failures.append("canonical form of (A&B)&(A|B|C)")
    if str(Model(AB, FREE).canonical("(A|B)&A")) != "A":
        failures.append("total ignorance must be neutral for intersection")
    collapsed = S_AB.canonical("A&B&(A|B)")
    if str(collapsed) != "A&B" or not collapsed.empty:
        failures.append("canonical form of A&B&(A|B) under exclusivity")
    three = Model(Frame(["t1", "t2", "t3"]), SHAFER)
    if str(three.canonical("t1|(t2&t3)")) != "t1":
        failures.append("reallocation form of t1|(t2&t3)")
    hyb = Model(ABC, HYBRID, ["A&B"])
    if not hyb.canonical("A&B").empty or hyb.canonical("A&C").empty:
        failures.append("hybrid constraint emptiness")

    m82 = MassMatrix(PAIR_82)
    if abs(column_sum(m82, S_AB.canonical("A")) - 1.2) > 1e-12:
        failures.append("column sum of A")
    padded = MassMatrix(PAIR_82 + (vacuous_bba(S_AB),))
    if abs(column_sum(padded, S_AB.canonical("A|B")) - 1.3) > 1e-12:
        failures.append("column sum of A|B with a vacuous source")
    _, zadeh_partials, zadeh_k = conjunctive(MassMatrix(ZADEH)).reduced()
    if abs(float(zadeh_k) - 0.99) > 1e-12:
        failures.append("zadeh total conflict")
    partials = {str(e): float(v) for e, v in zadeh_partials.items()}
    for name, want in (("A&B", 0.81), ("A&C", 0.09), ("B&C", 0.09)):
        if abs(partials.get(name, 0.0) - want) > 1e-12:
            failures.append(f"zadeh partial {name}")
    if abs(float(conjunctive(MassMatrix(BAYES)).reduced()[2]) - 0.62) > 1e-12:
        failures.append("bayes total conflict")

    corpus = golden_corpus()
    values = 0
    for case, build, expected, tol in corpus:
        try:
            result = build()
        except Exception as exc:  # pragma: no cover - an error is a failure
            failures.append(f"{case}: raised {exc!r}")
            continue
        _check(result, expected, tol, case, failures)
        values += len(expected)

    # the 3-source worked redistribution shares
    diag = Diagnostics()
    pcr5_multi(MassMatrix((*PAIR_103, THIRD)), diag=diag)
    shares = {}
    for r in diag.records:
        if isinstance(r.source, tuple):
            key = tuple(str(f[0]) for f in r.source)
            shares[(key, str(r.destination))] = float(r.amount)
    for factors, dest, want in ((("A", "A|B", "B"), "A", 0.072),
                                (("A", "A|B", "B"), "B", 0.048),
                                (("B", "A", "B"), "A", 0.015),
                                (("B", "A", "B"), "B", 0.009)):
        got = shares.get((factors, dest))
        values += 1
        if got is None or abs(got - want) > 1e-12:
            failures.append(f"term {factors} -> {dest}: got {got}, want {want}")

    elapsed = time.perf_counter() - start
    detail = f"{values} values, {len(corpus)} cases, {elapsed:.2f}s"
    if elapsed >= 5.0:
        failures.append(f"corpus took {elapsed:.2f}s, budget is 5s")
    _verdict(1, "golden-corpus", not failures,
             detail if not failures else "; ".join(failures[:8]))


def test_criterion_2_minc_transfer_factors():
    model = Model(Frame(["t1", "t2", "t3"]), SHAFER)
    m = MassMatrix((Bba(model, THREE_PAIR[0]), Bba(model, THREE_PAIR[1])))
    failures = []
    checked = 0
    for version, table in (("a", FACTORS_A), ("b", FACTORS_B)):
        diag = Diagnostics()
        minc(m, version, diag=diag)
        for conflict_text, wants in table.items():
            source = model.canonical(conflict_text)
            got = {str(r.destination): float(r.amount)
                   for r in diag.records if r.source == source}
            for dest, share in wants.items():
                checked += 1
                if abs(got.get(dest, 0.0) - share) > 5e-6:
                    failures.append(f"{version}/{conflict_text}->{dest}")
    _verdict(2, "minc-transfer-factors", not failures and checked >= 40,
             f"{checked} factors" if not failures else "; ".join(failures))


def test_criterion_3_convergence_table():
    rows = {
        Fraction("0.1"): {"A": 0.613333, "B": 0.236667, "A|B": 0.15},
        Fraction("0.01"): {"A": 0.619905, "B": 0.185095, "A|B": 0.195},
        Fraction("0.001"): {"A": 0.619999, "B": 0.180501, "A|B": 0.1995},
        Fraction("0.0001"): {"A": 0.62, "B": 0.180050, "A|B": 0.19995},
    }
    failures = []
    m2 = Bba(S_AB, {"A": Fraction("0.2"), "B": Fraction("0.3"), "A|B": Fraction("0.5")})
    for eps, want in rows.items():
        m1 = Bba(S_AB, {"A": Fraction("0.6"), "B": eps, "A|B": Fraction("0.4") - eps})
        got = pcr5_pair(m1, m2)
        for key, value in want.items():
            if abs(got[key] - value) > 5e-6:
                failures.append(f"eps={eps}: {key}")
    # exact-rational limit: epsilon = 0 lands on {0.62, 0.18, 0.20} exactly,
    # and every positive epsilon stays within 10*eps of it
    limit = {"A": Fraction(31, 50), "B": Fraction(9, 50), "A|B": Fraction(1, 5)}
    m1_0 = Bba(S_AB, {"A": Fraction("0.6"), "A|B": Fraction("0.4")})
    exact0 = {str(e): v for e, v in pcr5_pair(m1_0, m2, exact=True).items()}
    if exact0 != limit:
        failures.append(f"exact limit: {exact0}")
    for exponent in (1, 2, 3, 4, 6, 9, 12):
        eps = Fraction(1, 10 ** exponent)
        m1e = Bba(S_AB, {"A": Fraction("0.6"), "B": eps, "A|B": Fraction("0.4") - eps})
        for elem, value in pcr5_pair(m1e, m2, exact=True).items():
            if abs(value - limit[str(elem)]) > 10 * eps:
                failures.append(f"rate at eps=1e-{exponent}")
    _verdict(3, "pcr5-convergence", not failures,
             "4 rows + exact limit" if not failures else "; ".join(failures))


CLOSED_RULES = (
    ("dempster", lambda m: dempster(m)),
    ("yager", lambda m: yager(m)),
    ("dubois_prade", lambda m: dubois_prade(m)),
    ("dsm_hybrid", lambda m: dsm_hybrid(m)),
    ("wao", lambda m: wao(m)),
    ("minc_a", lambda m: minc(m, "a")),
    ("minc_b", lambda m: minc(m, "b")),
    ("pcr1", pcr1), ("pcr2", pcr2), ("pcr3", pcr3), ("pcr4", pcr4),
    ("pcr5", pcr5_multi),
)


def test_criterion_4_property_suite():
    rng = random.Random(0xACCE97)
    failures = []
    bbas_seen = 0

    for _ in range(120):
        model, sources = random_shafer_case(rng)
        bbas_seen += len(sources) + 1
        m = MassMatrix(sources)
        permuted = MassMatrix(sources[::-1])
        padded = MassMatrix(sources + [vacuous_bba(model)])
        for name, rule in CLOSED_RULES:
            try:
                result = rule(m)
            except TotalConflictError:
                continue
            if abs(result.total() - 1) > 1e-9:
                failures.append(f"{name}: sum {result.total()}")
            try:
                validate_bba(result)
            except Exception as exc:
                failures.append(f"{name}: {exc}")
            # pairwise-folded combination is order-dependent beyond two
            # sources; every other rule must not care about source order
            if name == "dubois_prade" and m.s > 2:
                continue
            if rule(permuted).masses != result.masses:
                failures.append(f"{name}: not commutative")
        # vacuous neutrality where it must hold
        plain_conj = conjunctive(m).reduced()
        if conjunctive(padded).reduced() != plain_conj:
            failures.append("conjunctive: vacuous input changed the result")
        for name, rule in (("dempster", dempster), ("minc", minc),
                           ("pcr2", pcr2), ("pcr3", pcr3), ("pcr4", pcr4),
                           ("pcr5", pcr5_multi)):
            try:
                a, b = rule(m), rule(padded)
            except TotalConflictError:
                continue
            keys = set(a) | set(b)
            if any(abs(a[k] - b[k]) > 1e-9 for k in keys):
                failures.append(f"{name}: vacuous input changed the result")
        # dempster is exactly the scaled conjunctive
        nonempty, _, k = plain_conj
        if float(k) < 1 - 1e-9:
            ds = dempster(m)
            for elem, mass in nonempty.items():
                if abs(ds[elem] * (1 - float(k)) - float(mass)) > 1e-12:
                    failures.append("dempster: not a scaled conjunctive")
        # first redistribution rule matches static averaging here
        a, b = pcr1(m), wao(m)
        if any(abs(a[x] - b[x]) > 1e-12 for x in set(a) | set(b)):
            failures.append("pcr1 != static wao on ordinary inputs")

    # light two-source sweep to push the sample size up
    for _ in range(300):
        model, sources = random_shafer_case(rng, max_s=2)
        bbas_seen += len(sources) + 1
        m = MassMatrix(sources)
        padded = MassMatrix(sources + [vacuous_bba(model)])
        a = pcr5_pair(sources[0], sources[1])
        b = pcr5_multi(padded)
        if a.masses != b.masses:
            failures.append("pcr5: vacuous input changed the result")
        if abs(a.total() - 1) > 1e-9:
            failures.append(f"pcr5 pair sum {a.total()}")

    # free-model identity: conflict-free, every redistribution is a no-op
    frame = Frame(["A", "B", "C"])
    free = Model(frame, FREE)
    for _ in range(25):
        tables = []
        for _ in range(2):
            focals = rng.sample(["A", "B", "C", "A|B", "A&B", "B&C", "A|B|C", "A&(B|C)"], 3)
            w = [rng.randint(1, 100) for _ in focals]
            tables.append({f: Fraction(x, sum(w)) for f, x in zip(focals, w)})
        sources = [Bba(free, t) for t in tables]
        bbas_seen += 2
        m = MassMatrix(sources)
        base = {e: float(v) for e, v in conjunctive(m).reduced()[0].items()}
        for name, rule in (("pcr1", pcr1), ("pcr2", pcr2), ("pcr3", pcr3),
                           ("pcr4", pcr4), ("pcr5", pcr5_multi)):
            got = rule(m)
            if any(abs(got[e] - v) > 1e-12 for e, v in base.items()):
                failures.append(f"{name}: changed a conflict-free combination")

    ok = not failures and bbas_seen >= 1000
    _verdict(4, "property-suite", ok,
             f"{bbas_seen} random assignments" if ok else "; ".join(failures[:6]))


def test_criterion_5_oracle_equivalence():
    rng = random.Random(0xACE)
    failures = []
    # two-source enumeration equals the closed pair form, bit for bit
    for _ in range(60):
        _, sources = random_shafer_case(rng, max_s=2)
        if pcr5_multi(MassMatrix(sources)).masses != pcr5_pair(*sources).masses:
            failures.append("pcr5_multi(s=2) != pcr5_pair")
    # three-source enumeration against the independent rational reference
    for _ in range(100):
        model, sources = random_shafer_case(rng, max_s=3, min_s=3)
        got = pcr5_multi(MassMatrix(sources))
        ref = pcr5_reference(
            [{frozenset(model.frame.mask_str(e.clauses[0]).split("|")): v
              for e, v in src.fractions().items()} for src in sources])
        for key, value in ref.items():
            elem = model.canonical("|".join(sorted(key)))
            if abs(got[elem] - float(value)) > 1e-12:
                failures.append(f"pcr5_multi vs reference on {set(key)}")
    # the canonical lattice against region semantics: closure over both
    # connectives from the singletons covers every expression of any depth
    labels = ["A", "B", "C"]
    frame = Frame(labels)
    model = Model(frame, FREE)
    oracle = RegionOracle(labels)
    reached = {frame.singleton(lab) for lab in labels}
    while True:
        fresh = set()
        for a in reached:
            for b in reached:
                fresh.add(union_of(model, a, b))
                fresh.add(intersection_of(model, a, b))
        if fresh <= reached:
            break
        reached |= fresh
    regions = {e: oracle.evaluate(str(e)) for e in reached}
    if len(set(regions.values())) != len(reached):
        failures.append("distinct canonical elements sharing a region set")
    for a in reached:
        for b in reached:
            if regions[union_of(model, a, b)] != regions[a] | regions[b]:
                failures.append(f"union mismatch on {a}, {b}")
            if regions[intersection_of(model, a, b)] != regions[a] & regions[b]:
                failures.append(f"intersection mismatch on {a}, {b}")
    _verdict(5, "oracle-equivalence", not failures,
             "pair/multi, 100 rational instances, full lattice closure"
             if not failures else "; ".join(failures[:4]))


def test_criterion_6_negative_regressions():
    failures = []
    # static averaging on a dynamically emptied frame under-normalizes
    diag = Diagnostics()
    result = wao(MassMatrix(WITNESSES), "static", model=B_DIES, diag=diag)
    if abs(result.total() - 0.8175) > 1e-12 or not diag.sum_deficit:
        failures.append(f"static wao sum {result.total()}, deficit {diag.sum_deficit}")
    # a vacuous source must shift pcr1 (its known defect)
    plain = pcr1(MassMatrix(PAIR_82))
    padded = pcr1(MassMatrix(PAIR_82 + (vacuous_bba(S_AB),)))
    if abs(plain["A"] - padded["A"]) <= 1e-3:
        failures.append("pcr1 unexpectedly neutral for a vacuous source")
    # total conflict has no Dempster combination
    try:
        dempster(MassMatrix((Bba(S_AB, {"A": 1.0}), Bba(S_AB, {"B": 1.0}))))
        failures.append("dempster accepted total conflict")
    except TotalConflictError:
        pass
    # certainty absorbs minC and Dempster, but not pcr5
    step1 = minc(MassMatrix((PRIOR, OBS_1)))
    step2 = minc(MassMatrix((step1, OBS_2)))
    if abs(step2["A"] - 1.0) > 1e-12:
        failures.append("minc stopped absorbing")
    if abs(dempster(MassMatrix((step1, OBS_2)))["A"] - 1.0) > 1e-12:
        failures.append("dempster stopped absorbing")
    responsive = pcr5_pair(pcr5_pair(PRIOR, OBS_1), OBS_2)
    if abs(responsive["A"] - 0.480268) > 5e-5 or abs(responsive["B"] - 0.519732) > 5e-5:
        failures.append("pcr5 target tracking off")
    _verdict(6, "negative-regressions", not failures,
             "deficit flagged, witnesses hold" if not failures else "; ".join(failures))
