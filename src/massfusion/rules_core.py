"""Conjunctive and disjunctive consensus, the first stage of every rule, and the read-out.

The conjunctive combination is folded pairwise on the free lattice, keeping
every empty-intersection entry as a distinct canonical element.  Rules then
view the result under a model, which merges equivalent non-empty entries
and leaves the partial-conflict breakdown untouched.  The conjunctive fold
and that model view (:func:`bba._view`) live in :mod:`bba`, beside the
matrix that keeps the consensus per model and the conflict ledger that
reads it; the fold is re-exported here.  The disjunctive fold is read
through the same view.

Every rule ends in :func:`_finish`, which reads its result out: the
consensus part as integer numerators over one denominator, already merged
by reduced key and sorted, plus the rule's shares as int pairs
(:mod:`_transfer`), merged onto those keys and rounded once per mass: by
int true division where no share lands, else by the certified fixed-point
sum of :func:`_transfer.rounded`.  Either way a float is the correctly
rounded exact mass, as ``float(Fraction)`` is.  The consensus part is a
fold's model view; a rule that keeps the partial conflicts apart joins the
view's two maps, whose keys are disjoint, with :func:`ordered`, so no key
is reduced again; :func:`_consensus` is that read-out, shared by the
conjunctive and disjunctive rules and one-source Dubois-Prade.
"""

from __future__ import annotations

from . import _transfer
from .bba import Bba, RawConjunctive, _fold, _view, conjunctive
from .kernels import union_canon
from .lattice import ordered


def _finish(model, out, exact=False, ints=None):
    """A rule's result: a float ``Bba``, or with ``exact`` the sorted rational masses.

    The masses are ``out``'s shares, lists of int pairs, plus, with ``ints
    = (numerators, den)``, the consensus part: integer numerators over one
    denominator, keyed by reduced elements in sorted order, as a fold's
    model view (:func:`bba._view`) gives them.  Shares are merged onto
    their reduced keys first, so each mass is rounded once, whatever order
    the rule added its parts in:
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


def disjunctive(matrix, model=None) -> Bba:
    """Disjunctive consensus of all sources.

    The core of the result is the union of the sources' cores.  The fold's
    entries are read under the model by the consensus's view
    (:func:`bba._view`), so a union that the model empties, whose factors
    are then all empty, is kept apart as a partial conflict is.
    """
    model = matrix.under(model)
    key, _, join = model.keying()[:3]
    entries, den = _fold(matrix.numerators(), key, join, _unite)
    return _consensus(model, _view(model, entries), den)


def _consensus(model, view, den):
    """A fold's model view ``(nonempty, conflicts, k)`` over ``den`` read out, each partial conflict kept apart."""
    nonempty, conflicts, _ = view
    return _finish(model, {}, ints=(ordered({**nonempty, **conflicts}), den))


def _unite(k, ka, ca, kb, cb):
    """The clauses of a union: the key itself when keys are clause tuples (:meth:`Model.keying`)."""
    return k if type(k) is tuple else union_canon(ca, cb)
