"""Conjunctive and disjunctive consensus, the first stage of every rule.

The conjunctive combination is folded pairwise on the free lattice, keeping
every empty-intersection entry as a distinct canonical element.  Rules then
view the result under a model, which merges equivalent non-empty entries
and leaves the partial-conflict breakdown untouched.  A matrix keeps its
consensus per model, so every rule run on one matrix shares one fold and
one model view.
"""

from __future__ import annotations

from fractions import Fraction

from .bba import Bba
from .kernels import intersect_canon, union_canon


def _fold(fracs, combine):
    """Fold the sources' exact masses left to right, product by product.

    ``combine(a, b)`` maps the clause tuples of two factors to the clause
    tuple that receives their product.
    """
    acc = {elem.clauses: mass for elem, mass in fracs[0].items()}
    for src in fracs[1:]:
        out = {}
        for ca, va in acc.items():
            for cb, vb in src.items():
                key = combine(ca, cb.clauses)
                prev = out.get(key)
                out[key] = va * vb if prev is None else prev + va * vb
        acc = out
    return acc


def _finish(model, out, exact=False):
    """A rule's result: a float ``Bba``, or with ``exact`` the sorted rational masses.

    Keys the model identifies are merged exactly first, so each mass is
    rounded once, whatever order the rule added its parts in.
    """
    merged = {}
    for elem, mass in out.items():
        key = model.reduce(elem)
        merged[key] = merged.get(key, Fraction(0)) + mass
    if exact:
        return {k: merged[k] for k in sorted(merged)}
    return Bba(model, {k: float(v) for k, v in merged.items()})


class RawConjunctive:
    """Conjunctive consensus on the free lattice.

    ``masses`` maps free-canonical clause tuples wrapped as elements to
    exact rational masses; empty-intersection entries are included, so the
    total is one.  ``reduced()`` gives the model view: merged non-empty
    masses, the per-element partial conflicts, and the total conflict.
    """

    __slots__ = ("model", "masses", "_reduced")

    def __init__(self, model, masses):
        self.model = model
        self.masses = masses
        self._reduced = None

    def reduced(self):
        """Return ``(nonempty, conflicts, k)`` under the model."""
        if self._reduced is None:
            nonempty, conflicts = {}, {}
            for elem, mass in self.masses.items():
                red = self.model.reduce(elem)
                if red.empty:
                    key = self.model.frame.element(elem.clauses, empty=True)
                    conflicts[key] = conflicts.get(key, Fraction(0)) + mass
                else:
                    nonempty[red] = nonempty.get(red, Fraction(0)) + mass
            k = sum(conflicts.values(), Fraction(0))
            self._reduced = (
                {e: nonempty[e] for e in sorted(nonempty)},
                {e: conflicts[e] for e in sorted(conflicts)},
                k,
            )
        return self._reduced

    def total(self):
        return sum(self.masses.values(), Fraction(0))


def conjunctive(matrix, model=None) -> RawConjunctive:
    """Conjunctive consensus of all sources, computed once per matrix and model.

    Folds pairwise over canonical intermediate results, which is exact
    because intersection on the free lattice is associative.  Under a free
    model nothing is empty and the result is itself a proper assignment.
    """
    model = model or matrix.model
    raw = matrix._consensus.get(model)
    if raw is None:
        frame = model.frame
        acc = _fold(matrix.fractions(), intersect_canon)
        masses = {frame.element(c): v for c, v in acc.items()}
        raw = RawConjunctive(model, {k: masses[k] for k in sorted(masses)})
        matrix._consensus[model] = raw
    return raw


def disjunctive(matrix, model=None) -> Bba:
    """Disjunctive consensus of all sources.

    The core of the result is the union of the sources' cores; the empty
    set never receives mass.
    """
    model = model or matrix.model
    frame = model.frame
    out = {}
    for clauses, mass in _fold(matrix.fractions(), union_canon).items():
        key = model.reduce(frame.element(clauses))
        out[key] = out.get(key, Fraction(0)) + mass
    return _finish(model, out)
