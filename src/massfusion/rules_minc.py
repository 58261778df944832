"""Daniel's minC rule, versions a and b.

Three stages: conjunctive consensus on the free lattice, reallocation of
every mixed element that the model identifies with a non-empty power-set
element (the equivalence-based reallocation), then proportional
redistribution of the remaining partial conflicts.  The second stage is the
consensus's model view (:meth:`RawConjunctive.numerators`), which merges
every non-empty entry onto its reduced form and keeps each partial conflict
apart; a destination's weight is its integer numerator there, over the
consensus's denominator.  Version a spreads a conflict over the unions of
subsets of its components; version b over every non-empty power-set
element under its disjunctive form.

A version only names its destinations (:func:`_destinations_a`,
:func:`_destinations_b`); :func:`rules_pcr._partial_conflicts`, shared with
PCR3 and PCR4, builds the weightings: the destinations' masses, then the
components' column sums (a ``"column-sums"`` fallback); when both are
empty the fallback chain starts at the conflict's disjunctive form, then
the total ignorance.  Version a builds its unions as label masks, at most
2^n distinct ones, and reduces each once (:meth:`Model.disjunctive`).
"""

from __future__ import annotations

from .bba import Bba
from .rules_pcr import _partial_conflicts

VERSION_A = "a"
VERSION_B = "b"


def _destinations_a(model, conflict, components, nonempty):
    """The disjunctive forms of the unions of every non-empty subset of the components."""
    unions = set()
    for e in components:
        mask = e.labels_mask()
        unions |= {u | mask for u in unions} | {mask}
    return sorted({model.disjunctive(u) for u in unions})


def _destinations_b(model, conflict, components, nonempty):
    """The non-empty single-clause elements within the conflict's disjunctive form."""
    u_mask = model.disjunctive(conflict.labels_mask()).labels_mask()
    return [e for e in nonempty if len(e.clauses) == 1 and e.clauses[0] & ~u_mask == 0]


def minc(matrix, version=VERSION_A, model=None, diag=None) -> Bba:
    """Combine the sources with minC (version ``"a"`` or ``"b"``).

    Destinations whose reallocated mass is zero receive nothing.  When every
    destination has zero mass the conflict falls back to the column sums of
    its components, then to its disjunctive form, then to the total
    ignorance.
    """
    if version not in (VERSION_A, VERSION_B):
        raise ValueError(f"unknown minC version {version!r}")
    destinations = _destinations_a if version == VERSION_A else _destinations_b
    return _partial_conflicts(matrix, matrix.under(model), diag, destinations)
