"""Belief assignments, the mass matrix, the product-term walk and the conflict ledger.

Rule arithmetic runs on exact rationals: every float mass is converted once
through :func:`to_fraction`, which snaps to a denominator of at most 10**6
when that loses nothing, so that summation order can never perturb results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .errors import BeliefFusionError, MassOnEmptyError, NegativeMassError, NotNormalizedError
from .kernels import absorb_masks, intersect_canon
from .lattice import CanonicalElement, OPEN

MASS_EPS = 1e-12
SUM_TOL = 1e-9

_SNAP = 10 ** 6


def to_fraction(x):
    """Exact rational for a mass value; decimal inputs stay small."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    exact = Fraction(x)
    snapped = exact.limit_denominator(_SNAP)
    return snapped if abs(snapped - exact) < Fraction(1, 10 ** 12) else exact


class Bba:
    """A (generalized) basic belief assignment over one model.

    Maps canonical elements to masses.  Keys may be given as expression
    strings or :class:`CanonicalElement` values; they are reduced under the
    model, merged when equivalent, and masses below ``1e-12`` are pruned.
    Construction rejects negative, non-numeric and non-finite masses;
    :func:`validate_bba` additionally enforces normalization and the
    empty-mass discipline.
    """

    __slots__ = ("model", "masses", "_fractions")

    def __init__(self, model, masses):
        self.model = model
        merged = {}
        for key, value in (masses.items() if hasattr(masses, "items") else masses):
            if isinstance(key, str):
                elem = model.canonical(key)
            elif isinstance(key, CanonicalElement):
                elem = model.reduce(key)
            else:
                raise TypeError(f"bad mass key {key!r}")
            if not isinstance(value, Fraction):
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    raise BeliefFusionError(f"mass {value!r} on {elem} is not a number") from None
                if not math.isfinite(value):
                    raise BeliefFusionError(f"mass {value!r} on {elem} is not finite")
            if value < 0:
                raise NegativeMassError(elem, value)
            if isinstance(value, float) and value < MASS_EPS:
                continue
            if isinstance(value, Fraction) and value == 0:
                continue
            merged[elem] = merged.get(elem, 0) + value
        self.masses = {k: merged[k] for k in sorted(merged)}
        self._fractions = None

    def fractions(self):
        """Masses as exact rationals, keyed by element: a read-only view, converted once."""
        if self._fractions is None:
            self._fractions = MappingProxyType({k: to_fraction(v) for k, v in self.masses.items()})
        return self._fractions

    def total(self):
        return sum(self.masses.values())

    def __getitem__(self, key):
        if isinstance(key, str):
            key = self.model.canonical(key)
        elif isinstance(key, CanonicalElement):
            key = self.model.reduce(key)
        return self.masses.get(key, 0.0)

    def __iter__(self):
        return iter(self.masses)

    def __len__(self):
        return len(self.masses)

    def items(self):
        return self.masses.items()

    def keys(self):
        return self.masses.keys()

    def values(self):
        return self.masses.values()

    def __eq__(self, other):
        return isinstance(other, Bba) and self.model == other.model and self.masses == other.masses

    def __repr__(self):
        inner = ", ".join(f"{k}: {float(v):.6f}" for k, v in self.masses.items())
        return f"Bba({{{inner}}})"


def validate_bba(b):
    """Check the defining invariants and return the assignment unchanged.

    Raises ``NotNormalizedError`` when masses do not sum to one within 1e-9,
    ``NegativeMassError`` on any negative mass, and ``MassOnEmptyError``
    when mass sits on an empty element (in an open world only the classical
    empty set may carry mass).
    """
    total = b.total()
    for elem, value in b.items():
        if value < 0:
            raise NegativeMassError(elem, value)
        if value > 0 and b.model.reduce(elem).empty:
            if not (b.model.world == OPEN and elem.is_classical_empty):
                raise MassOnEmptyError(elem)
    if abs(total - 1) > SUM_TOL:
        raise NotNormalizedError(float(total))
    return b


def vacuous_bba(model):
    """The vacuous assignment: full mass on the total ignorance."""
    return Bba(model, {model.frame.total_ignorance(): 1.0})


class MassMatrix:
    """An ordered stack of assignments sharing one frame and model."""

    __slots__ = ("sources", "model", "_columns", "_consensus", "_ledgers")

    def __init__(self, sources):
        sources = tuple(sources)
        if not sources:
            raise ValueError("a mass matrix needs at least one source")
        model = sources[0].model
        for s in sources[1:]:
            if s.model != model:
                raise ValueError("all sources must share one frame and model")
        self.sources = sources
        self.model = model
        self._columns = None
        self._consensus = {}  # model -> RawConjunctive, filled by rules_core.conjunctive
        self._ledgers = {}  # model -> ConflictLedger, filled by conflict_ledger

    @property
    def s(self):
        return len(self.sources)

    def __len__(self):
        return len(self.sources)

    def __getitem__(self, i):
        return self.sources[i]

    def __add__(self, other):
        return MassMatrix(self.sources + other.sources)

    def fractions(self):
        return tuple(src.fractions() for src in self.sources)

    def column_sums(self, model=None):
        """Per-element sums of the source masses, keyed under ``model``.

        Keys are re-reduced when a different model is supplied (dynamic
        fusion), merging columns that the new constraints identify.
        """
        if model is None or model == self.model:
            if self._columns is None:
                self._columns = self._column_sums(self.model)
            return self._columns
        return self._column_sums(model)

    def _column_sums(self, model):
        cols = {}
        for src in self.sources:
            for elem, mass in src.fractions().items():
                key = model.reduce(elem)
                cols[key] = cols.get(key, Fraction(0)) + mass
        return {k: cols[k] for k in sorted(cols)}


def column_sum(matrix, element, model=None):
    """Sum of the masses the sources commit to one element."""
    model = model or matrix.model
    return float(matrix.column_sums(model).get(model.reduce(element), Fraction(0)))


def focal_lists(sources):
    """Each source's (element, exact mass) pairs in element order."""
    return [sorted(src.fractions().items()) for src in sources]


def product_terms(focal_lists):
    """Stream every product of one focal element per source.

    Yields ``(factors, product, clauses)``: the tuple of ``(element, mass)``
    factors, the product of their masses, and the free canonical form of
    their intersection.  Terms come in lexicographic factor order, and the
    walk is depth-first, so each prefix intersection and product is
    computed once and shared by every term that extends it.
    """
    return _extend(focal_lists, (), Fraction(1), None)


def _extend(focal_lists, factors, product, clauses):
    depth = len(factors)
    for item in focal_lists[depth]:
        elem, mass = item
        here = elem.clauses if clauses is None else intersect_canon(clauses, elem.clauses)
        term = (factors + (item,), product * mass, here)
        if depth + 1 == len(focal_lists):
            yield term
        else:
            yield from _extend(focal_lists, *term)


@dataclass(frozen=True)
class ConflictTerm:
    """One product of focal elements with an empty combined intersection."""

    factors: tuple  # one (element, mass fraction) per source
    product: Fraction
    intersection: CanonicalElement  # free canonical form, empty under the model


def walk_terms(model, focal_lists):
    """One pass over the product terms: ``(nonempty, terms)``.

    ``nonempty`` sums the non-empty products on their reduced intersections;
    ``terms`` lists the conflicting ones as :class:`ConflictTerm` values.
    """
    frame = model.frame
    nonempty, terms = {}, []
    for factors, product, clauses in product_terms(focal_lists):
        red = model.reduce(frame.element(clauses))
        if red.empty:
            terms.append(ConflictTerm(factors, product, frame.element(clauses, empty=True)))
        else:
            nonempty[red] = nonempty.get(red, Fraction(0)) + product
    return {e: nonempty[e] for e in sorted(nonempty)}, terms


@dataclass(frozen=True)
class ConflictLedger:
    """Total conflict broken down by product terms and partial conflicts."""

    terms: tuple
    partials: dict  # free-canonical empty intersection -> summed mass
    k: Fraction
    model: object = field(repr=False, compare=False)
    nonempty: dict = field(repr=False, compare=False)  # the consensus without its conflict

    def partial(self, element):
        return self.partials.get(element, Fraction(0))

    @cached_property
    def involved(self):
        """Elements involved in the conflict, computed on first read.

        An element is involved when it occurs as a non-empty factor of some
        conflict term and does not include the intersection of the
        remaining factors of that term: the absorbed union of their clauses.
        """
        model = self.model
        frame = model.frame
        out = set()
        for term in self.terms:
            for i, (elem, _) in enumerate(term.factors):
                if model.reduce(elem).empty:
                    continue
                rest = absorb_masks([c for j, (other, _) in enumerate(term.factors)
                                     if j != i for c in other.clauses])
                if not elem.contains(frame.element(rest)):
                    out.add(elem)
        return frozenset(out)


def conflict_ledger(matrix, model=None):
    """Every product of source focal elements whose intersection is empty.

    One :func:`walk_terms` pass, kept on the matrix per model.
    """
    model = model or matrix.model
    if model in matrix._ledgers:
        return matrix._ledgers[model]
    if matrix.s < 2:
        raise ValueError("conflict needs at least two sources")
    nonempty, terms = walk_terms(model, focal_lists(matrix.sources))
    partials = {}
    for term in terms:
        partials[term.intersection] = partials.get(term.intersection, Fraction(0)) + term.product
    ledger = ConflictLedger(tuple(terms), {e: partials[e] for e in sorted(partials)},
                            sum(partials.values(), Fraction(0)), model, nonempty)
    matrix._ledgers[model] = ledger
    return ledger
