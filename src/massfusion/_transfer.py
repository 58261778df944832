"""The one redistribution loop, the helpers its rules share, and the share format.

Every redistributing rule hands its conflict to :func:`redistribute` as
units ``(source, mass, weightings, mask)``.  ``source`` names the
conflict in the diagnostics, and is read only when a collector is passed
(PCR5 names a term by its factors with their exact masses, built only
then, and passes ``None`` otherwise).  ``mass`` is a pair of ints
``(p, q)``, the unit's mass ``p/q``: a numerator over the consensus's
denominator, a PCR5 term's product included.
``weightings`` is an ordered list of ``(stage, [(element, weight), ...],
wden)`` with int weights over ``wden``: the first non-empty one splits
``mass`` by weight, and a named stage (``"column-sums"``) also records a
fallback.  When every weighting is empty, :func:`fallback_chain` sends
``mass`` to the disjunctive form of ``mask``, a mask of labels
(:meth:`Model.disjunctive`), else to the total ignorance, else to θ0 when
enabled, else to ∅; with mask 0 (the whole conflict, as in Yager's rule)
it starts at the total ignorance.

A share is an unreduced pair of ints ``(p, q)``, appended by :func:`add`
to the list ``out[element]``; no share is reduced or summed as it is made.
A mass is read out once (:func:`rounded`): the consensus part ``n/den``
and its shares are floored to ``K`` fractional bits and summed with the
count ``c`` of floors, so the exact sum lies in ``[S, S + c)`` times
``2**-K``.  When both ends round to one float, that float is the correctly
rounded exact sum: int true division rounds correctly and rounding is
monotone.  Otherwise that mass alone is summed as a ``Fraction``
(:func:`exact`).  Diagnostics get exact ``Fraction`` amounts, built only
when a collector is passed.
"""

from __future__ import annotations

from fractions import Fraction

K = 160  # fractional bits of the fixed-point read-out


def add(out, element, p, q):
    """Append the share ``p/q`` to ``out[element]``; a zero share is dropped."""
    if p:
        if (shares := out.get(element)) is None:
            out[element] = [(p, q)]
        else:
            shares.append((p, q))


def exact(n, den, shares):
    """``n/den`` plus the shares, as an exact ``Fraction``."""
    return sum((Fraction(p, q) for p, q in shares), Fraction(n, den))


def rounded(n, den, shares):
    """``float(exact(n, den, shares))``, certified from a fixed-point sum of ``K`` fractional bits."""
    s, c = ((n << K) // den, 1) if n else (0, 0)
    for p, q in shares:
        s += (p << K) // q
    c += len(shares)
    one = 1 << K
    if (lo := s / one) == (s + c) / one:
        return lo
    return float(exact(n, den, shares))


def proportional(out, source, mass, weighted, wden, diag=None):
    """Split ``mass`` over ``weighted`` = [(element, weight), ...] by weight; the weights are over ``wden``."""
    p, q = mass
    total = sum(w for _, w in weighted)
    q *= total
    for elem, w in weighted:
        add(out, elem, p * w, q)
        if diag is not None:
            diag.record(source, elem, Fraction(p * w, q), Fraction(total, wden))


def fallback_chain(model, out, source, mass, mask, diag=None):
    """Send ``mass`` to the first non-empty stage of the degenerate-case chain.

    The stages are the disjunctive form of the label ``mask`` (∅ for mask
    0), the total ignorance, then θ0 if enabled, else ∅.  Each is built only
    when the one before it is empty under the model.
    """
    frame = model.frame
    name, elem = "disjunctive-form", model.disjunctive(mask)
    if elem.empty:
        name, elem = "total-ignorance", model.total_ignorance()
    if elem.empty:
        name, elem = (("theta0", frame.theta0()) if model.theta0_enabled
                      else ("empty-set", frame.empty_element()))
    add(out, elem, *mass)
    if diag is not None:
        diag.fallback(source, name, elem, Fraction(*mass))


def redistribute(model, out, units, diag=None):
    """Add each unit's shares to ``out`` by its first non-empty weighting, else by fallback."""
    for source, mass, weightings, mask in units:
        for stage, weighted, wden in weightings:
            if weighted:
                proportional(out, source, mass, weighted, wden, diag)
                if stage is not None and diag is not None:
                    diag.fallback(source, stage, None, Fraction(*mass))
                break
        else:
            fallback_chain(model, out, source, mass, mask, diag)
    return out
