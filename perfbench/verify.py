"""Checks on request outputs, digests, and oracle cross-checks.

Everything here runs outside the timed region.  A check returns the digest
view of one output (masses rounded to 12 digits, keyed by element text) and
a list of problems; a request with any problem counts as failed.  The
cross-checks compare outputs with the independent references in
``tests/oracles.py``, which share no code with the package.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from oracles import RegionOracle, conjunctive_reference, pcr5_reference

TOL = 1e-9
DIGITS = 12


def digest(views):
    """Hex digest of a list of output views."""
    text = json.dumps(views, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_masses(name, masses, total, deficit, problems):
    """Non-negative masses; sum one, or one minus the reported deficit for WAO."""
    negative = [k for k, v in masses.items() if v < 0]
    if negative:
        problems.append(f"{name}: negative mass on {negative[:3]}")
    if abs(sum(masses.values()) - total) > TOL + 1e-12 * len(masses):
        problems.append(f"{name}: masses sum to {sum(masses.values())!r}, reported {total!r}")
    if name == "wao":
        if abs(1 - total - deficit) > TOL:
            problems.append(f"wao: sum {total!r} does not match sum_deficit {deficit!r}")
    elif abs(total - 1) > TOL:
        problems.append(f"{name}: sum {total!r} is not 1")


def check_report(rules, text):
    """Check one machine-format report that ran ``rules``."""
    problems = []
    out = json.loads(text)
    k = out.get("k")
    if not isinstance(k, float) or not -TOL <= k <= 1 + TOL:
        problems.append(f"total conflict k={k!r} outside [0, 1]")
        k = 0.0
    view = {"k": round(k, DIGITS), "rules": {}}
    for name in rules:
        entry = out["rules"].get(name)
        if entry is None:
            problems.append(f"{name}: missing from the report")
            continue
        if "error" in entry:
            # Dempster's rule is undefined exactly under total conflict
            if name != "dempster" or k < 1 - TOL:
                problems.append(f"{name}: {entry['error']}")
            view["rules"][name] = "undefined"
            continue
        masses = entry["masses"]
        check_masses(name, masses, entry["sum"], entry.get("sum_deficit", 0.0), problems)
        view["rules"][name] = {key: round(v, DIGITS) for key, v in masses.items()}
    return view, problems


def check_tracking(regions, priors, obs, results):
    """Check one tracking step: five normalized assignments, resets only under k = 1."""
    problems = []
    view = {}
    for name, bba in results.items():
        if bba is None:
            ref = conjunctive_reference([to_regions(regions, priors[name]), to_regions(regions, obs)])
            if ref.get(frozenset(), 0) != 1:
                problems.append(f"{name}: reset without total conflict")
            view[name] = "reset"
            continue
        masses = {str(e): float(v) for e, v in bba.items()}
        check_masses(name, masses, sum(masses.values()), 0.0, problems)
        view[name] = {key: round(v, DIGITS) for key, v in masses.items()}
    return view, problems


# --- oracle cross-checks ---------------------------------------------------


def region_view(labels, constraints):
    """Maps element text to its set of Venn regions left alive by ``constraints``."""
    oracle = RegionOracle(labels)
    alive = oracle.universe
    for text in constraints:
        alive -= oracle.evaluate(text)
    return lambda text: frozenset() if text == "∅" else oracle.evaluate(text) & alive


def to_regions(view, masses):
    """Exact masses keyed by region set, merging equivalent keys."""
    out = {}
    for key, value in masses.items():
        regs = view(str(key))
        out[regs] = out.get(regs, Fraction(0)) + Fraction(value)
    return out


def compare(name, view, got, ref, problems):
    """``got`` (element text -> float) against a reference keyed by region set."""
    merged = {}
    for key, value in got.items():
        regs = view(key)
        merged[regs] = merged.get(regs, 0.0) + value
    worst = max(abs(merged.get(r, 0.0) - float(ref.get(r, 0))) for r in set(merged) | set(ref))
    if worst > TOL:
        problems.append(f"{name}: differs from the oracle by {worst:.3g}")


def cross_check_report(doc, text):
    """Conjunctive (always) and PCR5 (where the reference's definition applies)."""
    problems = []
    view = region_view(doc["frame"], doc["model"]["empty"])
    sources = [to_regions(view, src) for src in doc["sources"]]
    rules = json.loads(text)["rules"]
    compare("conjunctive", view, rules["conjunctive"]["masses"], conjunctive_reference(sources), problems)
    # the reference splits a term over factors that are not strict supersets
    # of another factor, which is PCR5's rule for two sources (and on power
    # sets); with three sources on a hyper-power set the definitions differ
    if len(sources) == 2:
        compare("pcr5", view, rules["pcr5"]["masses"], pcr5_reference(sources), problems)
    return problems


def cross_check_tracking(regions, priors, obs, results):
    """PCR5 and Dempster of one step against the references."""
    problems = []
    observed = to_regions(regions, obs)
    pcr5 = results["pcr5"]
    ref = pcr5_reference([to_regions(regions, priors["pcr5"]), observed])
    compare("pcr5", regions, {str(e): v for e, v in pcr5.items()}, ref, problems)
    dempster = results["dempster"]
    if dempster is not None:
        conj = conjunctive_reference([to_regions(regions, priors["dempster"]), observed])
        k = conj.pop(frozenset(), 0)
        ref = {r: v / (1 - k) for r, v in conj.items()}
        compare("dempster", regions, {str(e): v for e, v in dempster.items()}, ref, problems)
    return problems
