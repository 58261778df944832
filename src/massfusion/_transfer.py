"""The one redistribution loop, and the helpers its rules share.

Every redistributing rule hands its conflict to :func:`redistribute` as
units ``(source, mass, weightings, stages)``.  ``source`` names the
conflict in the diagnostics.  ``weightings`` is an ordered list of
``(stage, [(element, weight), ...])``: the first non-empty one splits
``mass`` by weight, and a named stage (``"column-sums"``) also records a
fallback.  When every weighting is empty, ``mass`` goes down ``stages``,
``(name, element)`` candidates for :func:`fallback_chain`; a generator
builds them only for a unit that falls back.
"""

from __future__ import annotations

from .bba import accumulate


def u_of(model, elements):
    """Disjunctive form of a group of elements: one clause of all their labels."""
    mask = 0
    for e in elements:
        mask |= e.labels_mask()
    if mask == 0:
        return model.frame.empty_element()
    return model.reduce(model.frame.element((mask,)))


def _disjunctive_form(model, elements):
    """The elements' disjunctive form as a fallback stage, built when first asked for."""
    yield "disjunctive-form", u_of(model, elements)


def _ignorance_stages(model, elements):
    """The usual fallback stages: the elements' disjunctive form, then the total ignorance."""
    yield from _disjunctive_form(model, elements)
    yield "total-ignorance", model.frame.total_ignorance()


def components(model, conflict):
    """Distinct reduced clause elements of a conflict, in clause order.

    Under dynamic constraints two clauses can collapse to one element;
    counting it twice would skew the proportional split.
    """
    return list(dict.fromkeys(
        model.reduce(model.frame.element((c,))) for c in conflict.clauses))


def add(out, element, amount):
    if amount:
        accumulate(out, element, amount)


def proportional(out, source, mass, weighted, diag=None):
    """Split ``mass`` over ``weighted`` = [(element, weight), ...] by weight."""
    constant = sum(w for _, w in weighted)
    for elem, w in weighted:
        share = mass * w / constant
        add(out, elem, share)
        if diag is not None:
            diag.record(source, elem, share, constant)


def fallback_chain(model, out, source, mass, stages, diag=None):
    """Send ``mass`` to the first non-empty stage, else to θ0 if enabled, else to ∅.

    ``stages`` is an iterable of (name, element) candidates tried in order.
    """
    for name, elem in stages:
        elem = model.reduce(elem)
        if not elem.empty:
            break
    else:
        frame = model.frame
        elem, name = ((frame.theta0(), "theta0") if model.theta0_enabled
                      else (frame.empty_element(), "empty-set"))
    add(out, elem, mass)
    if diag is not None:
        diag.fallback(source, name, elem, mass)


def redistribute(model, out, units, diag=None):
    """Add each unit's mass to ``out`` by its first non-empty weighting, else down its stages."""
    for source, mass, weightings, stages in units:
        for stage, weighted in weightings:
            if weighted:
                proportional(out, source, mass, weighted, diag)
                if stage is not None and diag is not None:
                    diag.fallback(source, stage, None, mass)
                break
        else:
            fallback_chain(model, out, source, mass, stages, diag)
    return out
