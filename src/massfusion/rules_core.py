"""Conjunctive and disjunctive consensus, the first stage of every rule, and the read-out.

The conjunctive combination is folded pairwise on the free lattice, keeping
every empty-intersection entry as a distinct canonical element.  Rules then
view the result under a model, which merges equivalent non-empty entries
and leaves the partial-conflict breakdown untouched.  The conjunctive fold
lives in :mod:`bba`, beside the matrix that keeps it per model and the
conflict ledger that reads it; it is re-exported here.

Every rule ends in :func:`_finish`, which reads its result out: the
consensus part as integer numerators over one denominator, plus the
rule's ``Fraction`` shares, merged by reduced key and rounded once per
mass by int true division, which is correctly rounded, as
``float(Fraction)`` is.
"""

from __future__ import annotations

from fractions import Fraction

from .bba import Bba, RawConjunctive, _fold, _named, accumulate, conjunctive
from .kernels import union_canon
from .lattice import ordered


def _finish(model, out, exact=False, ints=None):
    """A rule's result: a float ``Bba``, or with ``exact`` the sorted rational masses.

    The masses are ``out``'s exact shares plus, with ``ints = (numerators,
    den)``, integer numerators over one denominator: the consensus part,
    which needs no ``Fraction``.  Keys the model identifies are merged
    exactly first, so each mass is rounded once, whatever order the rule
    added its parts in: ``n / den``, or ``(n*q + p*den) / (den*q)`` where
    shares summing to ``p/q`` land.  Int true division is correctly
    rounded, as ``float(Fraction)`` is.  The ``Bba`` is built directly from
    the merged keys, without re-reducing them.
    """
    numerators, den = ints or ({}, 1)
    reduce, merged, shares = model.reduce, {}, {}
    for elem, n in numerators.items():
        key = reduce(elem)
        merged[key] = merged.get(key, 0) + n
    for elem, mass in out.items():
        accumulate(shares, key := reduce(elem), mass)
        merged.setdefault(key, 0)
    merged = ordered(merged)
    if exact:
        return {elem: Fraction(n, den) + shares.get(elem, 0) for elem, n in merged.items()}
    return Bba._result(model, ((elem, n / den) if (share := shares.get(elem)) is None else
                               (elem, (n * share.denominator + share.numerator * den) / (den * share.denominator))
                               for elem, n in merged.items()))


def disjunctive(matrix, model=None) -> Bba:
    """Disjunctive consensus of all sources.

    The core of the result is the union of the sources' cores; the empty
    set never receives mass.
    """
    model = model or matrix.model
    key, _, join = model.keying()[:3]
    entries, den = _fold(matrix.numerators(), key, join, _unite)
    return _finish(model, {}, ints=(_named(entries, model.frame), den))


def _unite(k, ka, ca, kb, cb):
    """The clauses of a union: the key itself when keys are clause tuples (:meth:`Model.keying`)."""
    return k if type(k) is tuple else union_canon(ca, cb)
