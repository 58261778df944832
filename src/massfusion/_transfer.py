"""Shared helpers for redistributing conflicting mass."""

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


def _ignorance_stages(model, elements):
    """The usual fallback stages: the elements' disjunctive form, then the total ignorance."""
    return [("disjunctive-form", u_of(model, elements)),
            ("total-ignorance", model.frame.total_ignorance())]


def components(model, conflict):
    """Distinct reduced clause elements of a conflict, in clause order.

    Under dynamic constraints two clauses can collapse to one element;
    counting it twice would skew the proportional split.
    """
    return list(dict.fromkeys(
        model.reduce(model.frame.element((c,))) for c in conflict.clauses))


def terminal_element(model):
    """Where mass goes when every fallback is empty: θ0 if enabled, else ∅."""
    if model.theta0_enabled:
        return model.frame.theta0(), "theta0"
    return model.frame.empty_element(), "empty-set"


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
    """Send ``mass`` to the first non-empty stage, else to θ0 or ∅.

    ``stages`` is a list of (name, element) candidates tried in order.
    """
    for name, elem in stages:
        if elem is not None and not model.reduce(elem).empty:
            add(out, model.reduce(elem), mass)
            if diag is not None:
                diag.fallback(source, name, model.reduce(elem), mass)
            return
    elem, name = terminal_element(model)
    add(out, elem, mass)
    if diag is not None:
        diag.fallback(source, name, elem, mass)
