"""Conjunctive and disjunctive consensus, the first stage of every rule.

The conjunctive combination is folded pairwise on the free lattice, keeping
every empty-intersection entry as a distinct canonical element.  Rules then
view the result under a model, which merges equivalent non-empty entries
and leaves the partial-conflict breakdown untouched.  The conjunctive fold
lives in :mod:`bba`, beside the matrix that keeps it per model and the
conflict ledger that reads it; it is re-exported here.
"""

from __future__ import annotations

from .bba import Bba, RawConjunctive, _fold, _named, accumulate, conjunctive
from .kernels import union_canon
from .lattice import ordered


def _finish(model, out, exact=False):
    """A rule's result: a float ``Bba``, or with ``exact`` the sorted rational masses.

    Keys the model identifies are merged exactly first, so each mass is
    rounded once, whatever order the rule added its parts in.  The ``Bba``
    is built directly from the merged keys, without re-reducing them.
    """
    merged = {}
    for elem, mass in out.items():
        accumulate(merged, model.reduce(elem), mass)
    merged = ordered(merged)
    return merged if exact else Bba._result(model, merged)


def disjunctive(matrix, model=None) -> Bba:
    """Disjunctive consensus of all sources.

    The core of the result is the union of the sources' cores; the empty
    set never receives mass.
    """
    model = model or matrix.model
    key, _, join = model.keying()[:3]
    return _finish(model, _named(*_fold(matrix.fractions(), key, join, _unite), model.frame))


def _unite(ka, ca, kb, cb):
    return union_canon(ca, cb)
