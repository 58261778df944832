"""Proportional conflict redistribution rules PCR1 through PCR5.

All five start from the conjunctive consensus and differ in how finely they
split the conflicting mass and which weights drive the split: the total
conflict over all columns (PCR1), over the columns involved in the conflict
(PCR2), each partial conflict over its components' columns (PCR3) or their
conjunctive masses (PCR4), and finally each individual product term over
the masses composing it (PCR5: the consensus's non-empty masses plus the
conflicting product terms, the only rule that walks them; exact PCR5 walks
the sources' integer views through the matrix's conflict ledger, the
approximation the head consensus's free view and the last source's).
Each rule only lists its conflict units for :func:`_transfer.redistribute`:
``(source, mass, weightings, mask)``, where ``weightings`` holds the
rule's proportional weights and ``mask`` the labels of the conflict, or of
the columns or factors it is spread over, whose disjunctive form
(:meth:`Model.disjunctive`) heads the fallback chain taken when every
weighting is empty (then the total ignorance, then θ0 or ∅).  PCR3, PCR4
and minC share one builder of those weightings,
:func:`_partial_conflicts`, and differ only in the destinations they name:
PCR3 names none and splits over column sums; PCR4 names the components
and minC (:mod:`rules_minc`) its own destinations, split by conjunctive
mass with column sums as a named second weighting.

Arithmetic is exact and in integers, which makes the results independent
of source order and lets the convergence behaviour of PCR5 be checked
symbolically.  Every rule hands the consensus's non-empty masses to
:func:`rules_core._finish` as integer numerators; a unit's mass is a
numerator over the consensus's denominator, its weights are the integer
column sums (:meth:`MassMatrix.column_numerators`), the consensus's
numerators, or a PCR5 term's pooled factor numerators scaled to the
consensus's denominator, and each share it makes is a pair of ints
(:mod:`_transfer`).  PCR5 reads the exact ``Fraction`` maps of its views
only to name a term by its factors in the records of a ``Diagnostics``
collector, and only when one is passed.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from ._transfer import redistribute
from .bba import Bba, MassMatrix, conflict_ledger, involved, walk_terms
from .rules_core import _finish, conjunctive


def _total_conflict(matrix, model, diag, involved_only):
    """PCR1/PCR2: the total conflict ``k`` as one unit, split over column sums.

    PCR1 weights every column, PCR2 only the columns involved in the
    conflict; when none of them is non-empty with mass, ``k`` goes down the
    fallback chain from the disjunctive form of their labels.
    """
    raw = conjunctive(matrix, model)
    nonempty, _, k = raw.numerators()
    units = []
    if k:
        sums, cden = matrix.column_numerators(model)
        spread = sorted(involved(model, matrix.sources)) if involved_only else list(sums)
        cols = [(e, sums.get(e, 0)) for e in dict.fromkeys(model.reduce(e) for e in spread)]
        weighted = [(e, c) for e, c in cols if not e.empty and c > 0]
        units.append(("total-conflict", (k, raw.den), [(None, weighted, cden)],
                      reduce(or_, (e.labels_mask() for e in spread), 0)))
    return _finish(model, redistribute(model, {}, units, diag), ints=(nonempty, raw.den))


def pcr1(matrix, model=None, diag=None) -> Bba:
    """PCR1: total conflict over all non-empty columns.

    The simplest proportionalization; it works in every degenerate case but
    a totally ignorant source shifts the result.
    """
    return _total_conflict(matrix, model or matrix.model, diag, involved_only=False)


def pcr2(matrix, model=None, diag=None) -> Bba:
    """PCR2: total conflict over the columns involved in the conflict.

    A focal element is involved when it is non-empty and some conflicting
    product holds it without it including the intersection of the other
    factors; :func:`bba.involved` finds these from the sources' keys,
    without listing the product terms.
    """
    return _total_conflict(matrix, model or matrix.model, diag, involved_only=True)


def _partial_conflicts(matrix, model, diag, destinations=None):
    """PCR3, PCR4 and minC: one unit per partial conflict.

    A conflict's components are the disjunctive forms of its clauses, each
    kept once: under dynamic constraints two clauses can collapse to one
    element, and counting it twice would skew the proportional split.  The
    rules differ only in the destinations they name.
    ``destinations(model, conflict, components, nonempty)`` names the
    elements that share the conflict by their conjunctive masses, integer
    numerators over the consensus's ``den``; those without mass get
    nothing, and when none has mass the components' column sums take over
    as a ``"column-sums"`` fallback.  Without ``destinations`` (PCR3) the
    column sums are the split itself and record no fallback.  The fallback
    chain starts at the conflict's labels, whose disjunctive form is that
    of its components.  With no partial conflict, no column sum is read.
    """
    raw = conjunctive(matrix, model)
    nonempty, conflicts, _ = raw.numerators()
    units = []
    if conflicts:
        columns, cden = matrix.column_numerators(model)
        for conflict, v in conflicts.items():
            comps = list(dict.fromkeys(model.disjunctive(c) for c in conflict.clauses))
            by_columns = [(e, columns[e]) for e in comps if not e.empty and columns.get(e)]
            dests = destinations(model, conflict, comps, nonempty) if destinations else ()
            weightings = [(None, [(d, nonempty[d]) for d in dests if nonempty.get(d)], raw.den),
                          ("column-sums" if destinations else None, by_columns, cden)]
            units.append((conflict, (v, raw.den), weightings, conflict.labels_mask()))
    return _finish(model, redistribute(model, {}, units, diag), ints=(nonempty, raw.den))


def pcr3(matrix, model=None, diag=None) -> Bba:
    """PCR3: each partial conflict over its components' column sums."""
    return _partial_conflicts(matrix, model or matrix.model, diag)


def _pcr4_destinations(model, conflict, components, nonempty):
    """PCR4's destinations: the components, when every one has conjunctive mass (an empty one never has)."""
    return components if all(nonempty.get(e) for e in components) else ()


def pcr4(matrix, model=None, diag=None) -> Bba:
    """PCR4: each partial conflict over its components' conjunctive masses.

    As soon as one component has zero conjunctive mass the whole split falls
    back to column sums, then to the partial ignorance of the components
    (their disjunctive form), then to the total ignorance.
    """
    return _partial_conflicts(matrix, model or matrix.model, diag, _pcr4_destinations)


# --- PCR5 ------------------------------------------------------------------


def _term_unit(model, term, views, den, exact_maps=None):
    """One conflicting product term as a unit, split over the factors behind its conflict.

    ``views`` are the integer views ``(pairs, den)`` the walk read, one per
    factor, and ``den``, the product of their denominators, is the
    consensus's, so the unit's mass is ``(term.product, den)``.  Factors
    pointing at one element pool their masses multiplicatively, numerators
    and denominators apart.  A factor deserves a share when it is
    non-empty under the model and at least one of its clauses survives in
    the canonical form of the conflict; factors whose clauses are all
    absorbed (total or partial ignorances covering the rest of the term)
    contributed nothing to the emptiness and receive nothing.  A
    destination's weight is its pooled numerator times ``den`` over its
    pooled denominator, over ``den``: all int arithmetic.  With
    ``exact_maps``, one map of exact masses per view, the unit is named by
    its factors with those masses, for a collector's records; without, it
    has no name.
    """
    groups = {}
    for (elem, v), (_, d) in zip(term.factors, views):
        n, q = groups.get(elem, (1, 1))
        groups[elem] = n * v, q * d
    zset = set(term.intersection.clauses)
    dests = [(elem, n * (den // q)) for elem, (n, q) in groups.items()
             if not model.reduce(elem).empty and any(c in zset for c in elem.clauses)]
    source = None if exact_maps is None else tuple((e, m[e]) for (e, _), m in zip(term.factors, exact_maps))
    return source, (term.product, den), [(None, dests, den)], reduce(or_, (e.labels_mask() for e in groups), 0)


def _pcr5(matrix, model, terms, views, exact_maps, diag, exact=False):
    """PCR5's result: the consensus's non-empty masses plus every term of a walk over ``views``, split within itself.

    ``exact_maps()`` gives the views' exact masses, read only when a
    collector is passed.
    """
    raw = conjunctive(matrix, model)
    maps = None if diag is None else exact_maps()
    out = redistribute(model, {}, (_term_unit(model, term, views, raw.den, maps) for term in terms), diag)
    return _finish(model, out, exact, (raw.numerators()[0], raw.den))


def pcr5_pair(m1, m2, model=None, diag=None, exact=False):
    """Exact two-source PCR5.

    Every conflicting product m1(X)m2(Y) is split between X and Y
    proportionally to m1(X) and m2(Y); fractions with a zero denominator
    never arise because only positive products conflict.  With ``exact``
    the result keeps its rational masses instead of becoming a ``Bba``.
    Same as :func:`pcr5_multi` on the two sources.
    """
    model = model or m1.model
    matrix = MassMatrix((m1, m2))
    return _pcr5(matrix, model, conflict_ledger(matrix, model).terms, matrix.numerators(), matrix.fractions,
                 diag, exact)


def pcr5_multi(matrix, model=None, diag=None) -> Bba:
    """General PCR5 over all sources; a single source's empty focal elements are its terms.

    Each non-zero conflicting product is redistributed within itself: the
    factors pointing at one element pool their masses multiplicatively and
    the term splits over those pooled weights.  The non-empty products come
    from the matrix's conjunctive consensus, shared with the other rules on
    the matrix, and the conflicting terms from its conflict ledger.
    """
    model = model or matrix.model
    return _pcr5(matrix, model, conflict_ledger(matrix, model).terms, matrix.numerators(), matrix.fractions, diag)


def pcr5_approximate(matrix, model=None, order=None, diag=None) -> Bba:
    """Order-dependent PCR5 approximation for three or more sources.

    The first s-1 sources are combined conjunctively (conflict entries kept
    as lattice elements) and the stored result is then combined with the
    last source using the two-source PCR5 logic, over the conflicting terms
    of one :func:`bba.walk_terms` pass over the stored result's free view
    (:meth:`RawConjunctive.free_numerators`) and the last source's integer
    view.  The non-empty part is the whole
    matrix's consensus, which is exact by associativity.  The order used is
    reported through the diagnostics; for two sources this is the exact
    pair rule, and a single source runs :func:`pcr5_multi`, with no order.
    """
    model = model or matrix.model
    if order is None:
        order = tuple(range(1, matrix.s + 1))
    else:
        order = tuple(order)
        if sorted(order) != list(range(1, matrix.s + 1)):
            raise ValueError(f"order {order!r} is not a permutation of 1..{matrix.s}")
    if matrix.s == 1:
        return pcr5_multi(matrix, model, diag)
    if diag is not None:
        diag.order = order
    sources = [matrix.sources[i - 1] for i in order]
    head, last = conjunctive(MassMatrix(sources[:-1]), model), sources[-1]
    views = head.free_numerators(), last.numerators()
    return _pcr5(matrix, model, walk_terms(model, views), views, lambda: (head.masses, last.fractions()), diag)
