"""Clause-mask kernels.

A lattice element is stored as a sorted tuple of clause bitmasks over the
frame labels.  Each clause denotes the union of its labels; the element
denotes the intersection of its clauses.  All three kernels keep the clause
set absorption-reduced: whenever one clause is a subset of another, the
larger clause is redundant and dropped.  A strict subset always has the
smaller integer value, so scanning masks in ascending order finds every
absorber before its victims.

On frames of at most six labels the product passes in :mod:`bba` key by
region set and call these kernels only to name an entry of the
disjunctive or Dubois-Prade fold, and, through :meth:`lattice.Model.name`
once per key and model, a conflicting product, an element of the
conjunctive consensus once its entries are merged under a model, or one
of hybrid DSm's all-empty products (:func:`absorb_masks` of the first
product's concatenated clauses).  They still do all the clause work of the
expression parser, which combines each label's one-clause tuple with
:func:`intersect_canon` and :func:`union_canon` as it reads, and of the
conjunctive and disjunctive folds, the walk, hybrid DSm's fold over empty
focal elements and PCR2's involved elements on Shafer frames of 7-16
labels, where the disjunctive fold's key is the union's clause tuple
itself.  A model's prime forms take none of them (:mod:`lattice`).  The test
oracles and the benchmark's tracer use them too.
"""

BACKEND = "pure"


def absorb_masks(masks):
    """Reduce an iterable of clause masks to a sorted antichain tuple."""
    out = []
    for m in sorted(set(masks)):
        for kept in out:
            if kept & ~m == 0:
                break
        else:
            out.append(m)
    return tuple(out)


def intersect_canon(a, b):
    """Canonical form of the intersection of two canonical elements."""
    if a == b:
        return a
    return absorb_masks(a + b)


def union_canon(a, b):
    """Canonical form of the union of two canonical elements."""
    if a == b:
        return a
    return absorb_masks([x | y for x in a for y in b])
