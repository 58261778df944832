"""The one redistribution loop, and the helpers its rules share.

Every redistributing rule hands its conflict to :func:`redistribute` as
units ``(source, mass, weightings, elements)``.  ``source`` names the
conflict in the diagnostics.  ``weightings`` is an ordered list of
``(stage, [(element, weight), ...])``: the first non-empty one splits
``mass`` by weight, and a named stage (``"column-sums"``) also records a
fallback.  When every weighting is empty, :func:`fallback_chain` sends
``mass`` to the disjunctive form of ``elements``, else to the total
ignorance, else to θ0 when enabled, else to ∅; with no ``elements`` (the
whole conflict, as in Yager's rule) it starts at the total ignorance.
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


def fallback_chain(model, out, source, mass, elements, diag=None):
    """Send ``mass`` to the first non-empty stage of the degenerate-case chain.

    The stages are the disjunctive form of ``elements`` (skipped when there
    are none), the total ignorance, then θ0 if enabled, else ∅.  Each is
    built only when the one before it is empty under the model.
    """
    frame = model.frame
    name, elem = "disjunctive-form", u_of(model, elements)
    if elem.empty:
        name, elem = "total-ignorance", model.total_ignorance()
    if elem.empty:
        name, elem = (("theta0", frame.theta0()) if model.theta0_enabled
                      else ("empty-set", frame.empty_element()))
    add(out, elem, mass)
    if diag is not None:
        diag.fallback(source, name, elem, mass)


def redistribute(model, out, units, diag=None):
    """Add each unit's mass to ``out`` by its first non-empty weighting, else by fallback."""
    for source, mass, weightings, elements in units:
        for stage, weighted in weightings:
            if weighted:
                proportional(out, source, mass, weighted, diag)
                if stage is not None and diag is not None:
                    diag.fallback(source, stage, None, mass)
                break
        else:
            fallback_chain(model, out, source, mass, elements, diag)
    return out
