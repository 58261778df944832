"""Proportional conflict redistribution rules PCR1 through PCR5.

All five start from the conjunctive consensus and differ in how finely they
split the conflicting mass and which weights drive the split: the total
conflict over all columns (PCR1), over the columns involved in the conflict
(PCR2), each partial conflict over its components' columns (PCR3) or their
conjunctive masses (PCR4), and finally each individual product term over
the masses composing it (PCR5: the consensus's non-empty masses plus the
conflicting terms of the matrix's conflict ledger).
Every rule shares one degenerate-case chain: proportional weights, then
column sums, then the disjunctive form, then the total ignorance, then θ0
or ∅.

Arithmetic is exact rational throughout, which makes the results
independent of source order and lets the convergence behaviour of PCR5 be
checked symbolically.
"""

from __future__ import annotations

from fractions import Fraction

from ._transfer import _ignorance_stages, components, fallback_chain, proportional, u_of
from .bba import Bba, MassMatrix, conflict_ledger, focal_lists, walk_terms
from .rules_core import _finish, conjunctive


def pcr1(matrix, model=None, diag=None) -> Bba:
    """PCR1: total conflict over all non-empty columns.

    The simplest proportionalization; it works in every degenerate case but
    a totally ignorant source shifts the result.
    """
    model = model or matrix.model
    nonempty, _, k = conjunctive(matrix, model).reduced()
    out = dict(nonempty)
    if k:
        cols = [(e, c) for e, c in matrix.column_sums(model).items()
                if not e.empty and not model.reduce(e).empty and c > 0]
        if cols:
            proportional(out, "total-conflict", k, cols, diag)
        else:
            fallback_chain(model, out, "total-conflict", k,
                           [("disjunctive-form", u_of(model, list(matrix.column_sums(model))))],
                           diag)
    return _finish(model, out)


def pcr2(matrix, model=None, diag=None) -> Bba:
    """PCR2: total conflict over the columns involved in the conflict."""
    model = model or matrix.model
    nonempty, _, k = conjunctive(matrix, model).reduced()
    out = dict(nonempty)
    if k:
        columns = matrix.column_sums(model)
        involved = sorted(conflict_ledger(matrix, model).involved)
        reduced = dict.fromkeys(model.reduce(e) for e in involved)
        cols = [(e, columns.get(e, Fraction(0))) for e in reduced]
        cols = [(e, c) for e, c in cols if not e.empty and c > 0]
        if cols:
            proportional(out, "total-conflict", k, cols, diag)
        else:
            fallback_chain(model, out, "total-conflict", k,
                           [("disjunctive-form", u_of(model, involved))], diag)
    return _finish(model, out)


def _split_partial(model, out, conflict, mass, weighted, components, diag):
    """Common tail of PCR3/PCR4: weights, then columns, then ignorances."""
    if weighted:
        proportional(out, conflict, mass, weighted, diag)
    else:
        fallback_chain(model, out, conflict, mass,
                       _ignorance_stages(model, components), diag)


def pcr3(matrix, model=None, diag=None) -> Bba:
    """PCR3: each partial conflict over its components' column sums."""
    model = model or matrix.model
    nonempty, conflicts, _ = conjunctive(matrix, model).reduced()
    out = dict(nonempty)
    columns = matrix.column_sums(model)
    for conflict, mass in conflicts.items():
        comps = components(model, conflict)
        weighted = [(e, columns[e]) for e in comps if not e.empty and columns.get(e)]
        _split_partial(model, out, conflict, mass, weighted, comps, diag)
    return _finish(model, out)


def pcr4(matrix, model=None, diag=None) -> Bba:
    """PCR4: each partial conflict over its components' conjunctive masses.

    As soon as one component has zero conjunctive mass the whole split falls
    back to column sums, then to the partial ignorance of the components.
    """
    model = model or matrix.model
    nonempty, conflicts, _ = conjunctive(matrix, model).reduced()
    out = dict(nonempty)
    columns = matrix.column_sums(model)
    for conflict, mass in conflicts.items():
        comps = components(model, conflict)
        live = [e for e in comps if not e.empty]
        if live and all(nonempty.get(e) for e in live) and len(live) == len(comps):
            weighted = [(e, nonempty[e]) for e in live]
        else:
            weighted = [(e, columns[e]) for e in live if columns.get(e)]
            if weighted and diag is not None:
                diag.fallback(conflict, "column-sums", None, mass)
        _split_partial(model, out, conflict, mass, weighted, comps, diag)
    return _finish(model, out)


# --- PCR5 ------------------------------------------------------------------


def _transfer_term(model, out, term, diag):
    """Split one conflicting product term over the factors behind its conflict.

    Factors pointing at one element pool their masses multiplicatively.  A
    factor deserves a share when it is non-empty under the model and at
    least one of its clauses survives in the canonical form of the
    conflict; factors whose clauses are all absorbed (total or partial
    ignorances covering the rest of the term) contributed nothing to the
    emptiness and receive nothing.
    """
    groups = {}
    for elem, mass in term.factors:
        groups[elem] = groups.get(elem, Fraction(1)) * mass
    zset = set(term.intersection.clauses)
    dests = [(elem, weight) for elem, weight in groups.items()
             if not model.reduce(elem).empty and any(c in zset for c in elem.clauses)]
    if dests:
        proportional(out, term.factors, term.product, dests, diag)
    else:
        fallback_chain(model, out, term.factors, term.product,
                       _ignorance_stages(model, list(groups)), diag)


def _pcr5(matrix, model, terms, diag):
    """Rational PCR5 masses: the consensus's non-empty masses plus every term, split within itself."""
    out = dict(conjunctive(matrix, model).reduced()[0])
    for term in terms:
        _transfer_term(model, out, term, diag)
    return out


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
    return _finish(model, _pcr5(matrix, model, conflict_ledger(matrix, model).terms, diag), exact)


def pcr5_multi(matrix, model=None, diag=None) -> Bba:
    """General PCR5 over all sources, for two or more.

    Each non-zero conflicting product is redistributed within itself: the
    factors pointing at one element pool their masses multiplicatively and
    the term splits over those pooled weights.  The non-empty products come
    from the matrix's conjunctive consensus and the conflicting terms from
    its conflict ledger, both shared with the other rules on the matrix.
    """
    model = model or matrix.model
    return _finish(model, _pcr5(matrix, model, conflict_ledger(matrix, model).terms, diag))


def pcr5_approximate(matrix, model=None, order=None, diag=None) -> Bba:
    """Order-dependent PCR5 approximation for three or more sources.

    The first s-1 sources are combined conjunctively (conflict entries kept
    as lattice elements) and the stored result is then combined with the
    last source using the two-source PCR5 logic, over the conflicting terms
    of one :func:`bba.walk_terms` pass.  The non-empty part is the whole
    matrix's consensus, which is exact by associativity.  The order used is
    reported through the diagnostics; for two sources this is the exact
    pair rule.
    """
    model = model or matrix.model
    if order is None:
        order = tuple(range(1, matrix.s + 1))
    else:
        order = tuple(order)
        if sorted(order) != list(range(1, matrix.s + 1)):
            raise ValueError(f"order {order!r} is not a permutation of 1..{matrix.s}")
    if diag is not None:
        diag.order = order
    sources = [matrix.sources[i - 1] for i in order]
    head = conjunctive(MassMatrix(sources[:-1]), model)
    terms = walk_terms(model, [list(head.masses.items()), *focal_lists(sources[-1:])])
    return _finish(model, _pcr5(matrix, model, terms, diag))
