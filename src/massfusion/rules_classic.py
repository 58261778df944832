"""Classic combination rules built on the conjunctive consensus.

Dempster normalizes the conflict away, Smets parks it on the empty set,
Yager moves it to the total ignorance, Dubois-Prade moves each partial
conflict to the union of its factors, the hybrid DSm rule routes it through
integrity constraints, and the weighted-operator family (including both
flavors of weighted averaging) reallocates it by per-element coefficients.

Yager and the hybrid DSm rule give :func:`_transfer.redistribute` units
``(source, mass, [], mask)`` with no weightings, so each goes straight
down the fallback chain from the disjunctive form of its label mask:
Yager's total conflict has mask 0 and starts at the total ignorance.  The
hybrid rule reads no product terms: each partial conflict of the
consensus is one unit with its own labels, less the products whose
factors are all empty.  One :func:`bba._fold` over the sources' empty
focal elements finds those, and each (partial conflict, union of the
factors' labels) pair becomes one unit with that union as its mask; the
model names each such product once (:meth:`Model.name`).
Dubois-Prade folds through :func:`bba._fold` too, on the keys the model
leaves alive (:meth:`Model.keying`), so no product is reduced under the
model or passed to a clause kernel.
"""

from __future__ import annotations

from fractions import Fraction

from ._transfer import add, redistribute
from .bba import Bba, _concat
from .errors import MassOnEmptyError, NotNormalizedError, TotalConflictError
from .kernels import union_canon
from .rules_core import _finish, _fold, _merged, _named, conjunctive
from .rules_pcr import pcr1


def dempster(matrix, model=None, diag=None) -> Bba:
    """Dempster's rule: conjunctive consensus scaled by 1/(1-k).

    Raises :class:`TotalConflictError` when the degree of conflict reaches
    one, where the normalization is undefined.
    """
    model = model or matrix.model
    raw = conjunctive(matrix, model)
    nonempty, _, k = raw.numerators()
    if (raw.den - k) * 10 ** 12 <= raw.den:  # 1 - k <= 1e-12, in integers
        raise TotalConflictError(k / raw.den)
    return _finish(model, {}, ints=(nonempty, raw.den - k))


def smets(matrix, model=None, diag=None) -> Bba:
    """Smets' rule: unnormalized conjunctive consensus, conflict on ∅."""
    model = model or matrix.model
    raw = conjunctive(matrix, model)
    nonempty, _, k = raw.numerators()
    if k:  # ∅ is never among the non-empty masses
        nonempty = _merged(model, {**nonempty, model.frame.empty_element(): k})
    return _finish(model, {}, ints=(nonempty, raw.den))


def yager(matrix, model=None, diag=None) -> Bba:
    """Yager's rule: the whole conflict reinforces the total ignorance."""
    model = model or matrix.model
    raw = conjunctive(matrix, model)
    nonempty, _, k = raw.numerators()
    units = [("total-conflict", (k, raw.den), [], 0)] if k else []
    return _finish(model, redistribute(model, {}, units, diag), ints=(nonempty, raw.den))


def dubois_prade(matrix, model=None, diag=None) -> Bba:
    """Dubois-Prade's rule: conflicting products move to their factor union.

    Defined pairwise; more sources are folded left to right, which makes
    the result order-dependent (the rule is not associative).  The fold
    keys each product by what the model leaves alive of it, its live key
    (:meth:`Model.keying`): the intersection of the factors' live keys when
    it is non-empty, else their union, else the total ignorance's.
    """
    model = model or matrix.model
    if matrix.s == 1:  # no product: the source under the model, each empty focal element kept apart
        pairs, den = matrix.sources[0].numerators()
        return _finish(model, {}, ints=(_merged(model, dict(pairs)), den))
    key, _, _, _, live = model.keying()
    ignorance = model.frame.total_ignorance()  # _finish reduces it with every other entry
    top = live(key(ignorance))

    def clauses_of(k, ka, ca, kb, cb):
        return ca + cb if ka & kb else union_canon(ca, cb) if ka | kb else ignorance.clauses

    entries, den = _fold(matrix.numerators(), lambda e: live(key(e)),
                         lambda a, b: a & b or a | b or top, clauses_of)
    if matrix.s > 2 and diag is not None:
        diag.notes.append("pairwise fold in source order; not associative")
        diag.order = tuple(range(1, matrix.s + 1))
    return _finish(model, {}, ints=(_merged(model, _named(entries, model.frame)), den))


def _all_empty_products(matrix, model):
    """Products whose factors are all empty under ``model``, as hybrid DSm needs them.

    One :func:`bba._fold` over each source's empty focal elements, keyed by
    the product's free intersection and the union of its factors' labels
    (a mask); there is none when some source has no empty focal element,
    and the sources after the first such one are not scanned.  Returns
    sorted ``(element, mask, numerator)`` triples, each element named by
    :meth:`Model.name` under the product's free key; the numerators are
    over the consensus's ``den``, the product of the sources' denominators.
    """
    key, meet, _, _, live = model.keying()
    empties = []
    for pairs, den in matrix.numerators():
        if not (empty := [(elem, v) for elem, v in pairs if not live(key(elem))]):
            return []
        empties.append((empty, den))
    entries, _ = _fold(empties, lambda e: (key(e), e.labels_mask()),
                         lambda a, b: (meet(a[0], b[0]), a[1] | b[1]), _concat)
    return sorted((model.name(free, clauses), mask, v) for (free, mask), (clauses, v) in entries.items())


def dsm_hybrid(matrix, model=None, diag=None) -> Bba:
    """The hybrid DSm rule under an arbitrary model.

    Non-empty intersections keep their conjunctive mass.  A product whose
    factors are all empty goes to the union of their disjunctive forms (or
    to the total ignorance when that union is empty).  Any other empty
    intersection goes to the disjunctive form of its canonical conflict.
    When everything collapses, full mass lands on ∅ (or θ0 when the closure
    hypothesis is enabled), signalling that the problem has no solution.

    No product term is listed: each partial conflict of the consensus moves
    as one unit, less its all-empty products, which move as one unit per
    label union (:func:`_all_empty_products`).
    """
    model = model or matrix.model
    raw = conjunctive(matrix, model)
    nonempty, conflicts, k = raw.numerators()
    rest, units = dict(conflicts), []
    for conflict, mask, v in _all_empty_products(matrix, model) if k else ():
        rest[conflict] -= v
        units.append((conflict, (v, raw.den), [], mask))
    units += [(conflict, (v, raw.den), [], conflict.labels_mask()) for conflict, v in rest.items() if v]
    out = redistribute(model, {}, units, diag)
    if diag is not None and out.get(model.frame.empty_element()):
        diag.notes.append("degenerate problem: all elements empty")
    return _finish(model, out, ints=(nonempty, raw.den))


def weighted_operator(matrix, weights, model=None, diag=None) -> Bba:
    """The general weighted operator: m(X) = m12(X) + w(X) * k.

    ``weights`` maps elements (the classical empty set included) to
    coefficients in [0, 1] summing to one.  They are read as the masses of
    a :class:`Bba`, so a key or coefficient that a ``Bba`` rejects is
    rejected here too, and a weight on an element the model empties, other
    than the classical empty set, raises ``MassOnEmptyError``.
    """
    model = model or matrix.model
    wnorm = Bba(model, weights).fractions()
    for elem, w in wnorm.items():
        if w and not elem.is_classical_empty and model.reduce(elem).empty:
            raise MassOnEmptyError(elem)
    total = sum(wnorm.values(), Fraction(0))
    if abs(total - 1) > Fraction(1, 10 ** 9):
        raise NotNormalizedError(float(total))
    raw = conjunctive(matrix, model)
    nonempty, _, k = raw.numerators()
    out = {}
    for elem, w in wnorm.items():
        add(out, elem, w.numerator * k, w.denominator * raw.den)
    return _finish(model, out, ints=(nonempty, raw.den))


STATIC = "static"
DYNAMIC = "dynamic"


def wao(matrix, mode=STATIC, model=None, diag=None) -> Bba:
    """Weighted average operator, static or dynamic.

    Static weighting uses the per-element average of the source masses; the
    share aimed at elements that have meanwhile become empty is simply lost,
    so the result can sum below one.  That lost share, ``k`` times the
    average mass of the empty columns, is reported through the diagnostics
    as ``sum_deficit``, never silently renormalized.  The dynamic variant
    rescales the coefficients over the non-empty columns, which is exactly
    the first proportional-conflict rule, so it runs :func:`rules_pcr.pcr1`.
    """
    if mode == DYNAMIC:
        return pcr1(matrix, model, diag)
    if mode != STATIC:
        raise ValueError(f"unknown mode {mode!r}")
    model = model or matrix.model
    raw = conjunctive(matrix, model)
    nonempty, _, k = raw.numerators()
    out, dropped = {}, 0
    if k:
        columns, cden = matrix.column_numerators(model)
        q = raw.den * cden * matrix.s  # each share is k/den * c/cden / s
        for elem, c in columns.items():
            if elem.empty:
                dropped += k * c
                continue
            add(out, elem, k * c, q)
            if diag is not None:
                diag.record("total-conflict", elem, Fraction(k * c, q), Fraction(matrix.s))
    if diag is not None and dropped:
        diag.sum_deficit = dropped / q
    return _finish(model, out, ints=(nonempty, raw.den))
