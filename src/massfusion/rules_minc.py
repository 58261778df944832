"""Daniel's minC rule, versions a and b.

Three stages: conjunctive consensus on the free lattice, reallocation of
every mixed element that the model identifies with a non-empty power-set
element (the equivalence-based reallocation), then proportional
redistribution of the remaining partial conflicts.  Version a spreads a
conflict over the unions of subsets of its components; version b over every
non-empty power-set element under its disjunctive form.
"""

from __future__ import annotations

import itertools

from ._transfer import components, fallback_chain, proportional, u_of
from .bba import Bba
from .rules_core import RawConjunctive, _finish, conjunctive

VERSION_A = "a"
VERSION_B = "b"


def ebr_reallocate(raw: RawConjunctive, model=None) -> RawConjunctive:
    """Fold every model-equivalent mixed element onto its power-set form.

    Masses of elements whose canonical form under the model is non-empty
    move to that form; pure conflicts keep their free canonical form.
    """
    model = model or raw.model
    nonempty, conflicts, _ = raw.reduced()
    merged = dict(nonempty)
    merged.update(conflicts)
    return RawConjunctive(model, {k: merged[k] for k in sorted(merged)})


def _destinations_a(model, components):
    dests = set()
    for r in range(1, len(components) + 1):
        for combo in itertools.combinations(components, r):
            mask = 0
            for e in combo:
                mask |= e.labels_mask()
            dests.add(model.reduce(model.frame.element((mask,))))
    return sorted(dests)


def _destinations_b(model, conflict, reallocated):
    u_mask = u_of(model, [conflict]).labels_mask()
    dests = []
    for elem in reallocated:
        if elem.empty or model.reduce(elem).empty:
            continue
        if len(elem.clauses) == 1 and elem.clauses[0] & ~u_mask == 0:
            dests.append(elem)
    return dests


def minc(matrix, version=VERSION_A, model=None, diag=None) -> Bba:
    """Combine the sources with minC (version ``"a"`` or ``"b"``).

    Destinations whose reallocated mass is zero receive nothing.  When every
    destination has zero mass the conflict falls back to the column sums of
    its components, then to its disjunctive form.
    """
    if version not in (VERSION_A, VERSION_B):
        raise ValueError(f"unknown minC version {version!r}")
    model = model or matrix.model
    star = ebr_reallocate(conjunctive(matrix, model), model)
    nonempty, conflicts, _ = star.reduced()
    out = dict(nonempty)
    columns = matrix.column_sums(model)
    for conflict, mass in conflicts.items():
        comps = components(model, conflict)
        if version == VERSION_A:
            dests = _destinations_a(model, comps)
        else:
            dests = _destinations_b(model, conflict, star.masses)
        weighted = [(d, nonempty[d]) for d in dests if nonempty.get(d)]
        if weighted:
            proportional(out, conflict, mass, weighted, diag)
            continue
        by_columns = [(c, columns[c]) for c in sorted(comps)
                      if not c.empty and columns.get(c)]
        if by_columns:
            proportional(out, conflict, mass, by_columns, diag)
            if diag is not None:
                diag.fallback(conflict, "column-sums", None, mass)
            continue
        fallback_chain(model, out, conflict, mass,
                       [("disjunctive-form", u_of(model, [conflict]))], diag)
    return _finish(model, out)
