"""Conjunctive and disjunctive consensus, the first stage of every rule, and the read-out.

The conjunctive combination is folded pairwise on the free lattice, keeping
every empty-intersection entry as a distinct canonical element.  Rules then
view the result under a model, which merges equivalent non-empty entries
and leaves the partial-conflict breakdown untouched.  The conjunctive fold
lives in :mod:`bba`, beside the matrix that keeps it per model and the
conflict ledger that reads it; it is re-exported here.

Every rule ends in :func:`_finish`, which reads its result out: the
consensus part as integer numerators over one denominator, already merged
by reduced key and sorted (the consensus's model view, or :func:`_merged`),
plus the rule's shares as int pairs (:mod:`_transfer`), merged onto those
keys and rounded once per mass: by int true division where no share lands,
else by the certified fixed-point sum of :func:`_transfer.rounded`.  Either
way a float is the correctly rounded exact mass, as ``float(Fraction)`` is.
"""

from __future__ import annotations

from . import _transfer
from .bba import Bba, RawConjunctive, _fold, _named, conjunctive
from .kernels import union_canon
from .lattice import ordered


def _finish(model, out, exact=False, ints=None):
    """A rule's result: a float ``Bba``, or with ``exact`` the sorted rational masses.

    The masses are ``out``'s shares, lists of int pairs, plus, with ``ints
    = (numerators, den)``, the consensus part: integer numerators over one
    denominator, keyed by reduced elements in sorted order, as
    :meth:`RawConjunctive.numerators` gives them and :func:`_merged` makes
    any other map.  Shares are merged onto their reduced keys first, so each
    mass is rounded once, whatever order the rule added its parts in:
    ``n / den``, which int true division rounds correctly, or
    :func:`_transfer.rounded` where shares land.  The ``Bba`` is built
    directly from the merged keys, without re-reducing them.
    """
    numerators, den = ints or ({}, 1)
    reduce, shares = model.reduce, {}
    for elem, pairs in out.items():
        key = reduce(elem)
        shares[key] = shares.get(key, []) + pairs
    merged = numerators if numerators.keys() >= shares.keys() else ordered({**dict.fromkeys(shares, 0), **numerators})
    if exact:
        return {elem: _transfer.exact(n, den, shares.get(elem, ())) for elem, n in merged.items()}
    return Bba._result(model, ((elem, n / den) if (pairs := shares.get(elem)) is None else
                               (elem, _transfer.rounded(n, den, pairs)) for elem, n in merged.items()))


def _merged(model, numerators):
    """Integer numerators keyed by any elements, merged by reduced key and sorted, as :func:`_finish` takes them."""
    reduce, merged = model.reduce, {}
    for elem, n in numerators.items():
        key = reduce(elem)
        merged[key] = merged.get(key, 0) + n
    return ordered(merged)


def disjunctive(matrix, model=None) -> Bba:
    """Disjunctive consensus of all sources.

    The core of the result is the union of the sources' cores; the empty
    set never receives mass.
    """
    model = model or matrix.model
    key, _, join = model.keying()[:3]
    entries, den = _fold(matrix.numerators(), key, join, _unite)
    return _finish(model, {}, ints=(_merged(model, _named(entries, model.frame)), den))


def _unite(k, ka, ca, kb, cb):
    """The clauses of a union: the key itself when keys are clause tuples (:meth:`Model.keying`)."""
    return k if type(k) is tuple else union_canon(ca, cb)
