"""Belief assignments, the mass matrix and the two passes over its products.

Rule arithmetic runs on exact rationals, converted once per assignment, so
that summation order can never perturb results.  Masses a user passes in
snap to small decimals through :func:`to_fraction`.  A rule result is built
by :meth:`Bba._result`, which rounds each exact mass to a float once, and
converts back to the exact value of each float, so every step of a
sequential fusion rounds once.  The folds multiply and add integer
numerators over a common denominator and build a ``Fraction`` only for what
is read at the end; results are the same rationals.

One product fold, :func:`_fold`, serves every rule but PCR5's walk: the
conjunctive consensus (:func:`conjunctive`, run at most once per matrix and
model), the disjunctive and Dubois-Prade folds, and hybrid DSm's fold over
empty focal elements.  The walk (:func:`walk_terms`) only lists the
conflicting product terms, for PCR5's :func:`conflict_ledger`, and no
other rule walks.  PCR2's involved elements (:func:`involved`) come from
folds of the sources' keys alone, with no masses.  The conjunctive fold
keeps integer numerators and names no entry: :meth:`RawConjunctive.reduced`
merges them by what the model leaves alive and names each merged element
once per model; the free view ``RawConjunctive.masses`` is built only when
read.  Every product pass takes its keys, intersection, union and
emptiness test from the model, :meth:`Model.keying`: region sets on frames
of at most six labels, where ``&`` and ``|`` intersect and unite, clause
tuples on larger (Shafer) frames.  The model names the products the passes
read under it, merged groups and conflicts of the consensus and the walk's
conflicting terms, through :meth:`Model.name`, once per key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import BeliefFusionError, MassOnEmptyError, NegativeMassError, NotNormalizedError
from .kernels import absorb_masks
from .lattice import OPEN, CanonicalElement, ordered

MASS_EPS = 1e-12
SUM_TOL = 1e-9

_SNAP = 10 ** 6


def to_fraction(x):
    """Exact rational for a mass a user passed in; decimal inputs stay small.

    A float snaps to the rational with a denominator of at most 10**6
    nearest to it when that lies within 1e-12 (``0.1`` becomes ``1/10``),
    else it converts exactly.  Rule results do not come through here: they
    convert to the exact value of their floats (:meth:`Bba.fractions`).
    """
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
    Construction rejects negative, non-numeric (booleans and strings
    included) and non-finite masses;
    :func:`validate_bba` additionally enforces normalization and the
    empty-mass discipline.
    """

    __slots__ = ("model", "masses", "_fractions", "_exact")

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
                    if isinstance(value, (bool, str)):  # float() would take True and "0.5"
                        raise TypeError
                    value = float(value)
                except (TypeError, ValueError):
                    raise BeliefFusionError(f"mass {value!r} on {elem} is not a number") from None
                except OverflowError:  # an int too large for a float
                    raise BeliefFusionError(f"mass on {elem} is not finite") from None
                if not math.isfinite(value):
                    raise BeliefFusionError(f"mass {value!r} on {elem} is not finite")
            if value < 0:
                raise NegativeMassError(elem, value)
            if isinstance(value, float) and value < MASS_EPS:
                continue
            if isinstance(value, Fraction) and value == 0:
                continue
            merged[elem] = merged.get(elem, 0) + value
        self.masses = ordered(merged)
        self._fractions = None
        self._exact = False

    @classmethod
    def _result(cls, model, merged):
        """A rule's result from exact masses whose keys are already reduced, merged and sorted.

        Each mass is rounded to a float once; masses below ``1e-12`` are
        pruned and a negative mass is rejected.  :meth:`fractions` gives back
        the exact value of each float, so a fed-back result is not snapped.
        """
        self = cls.__new__(cls)
        self.model = model
        self.masses = {}
        for elem, mass in merged.items():
            value = float(mass)
            if value < 0:
                raise NegativeMassError(elem, value)
            if value >= MASS_EPS:
                self.masses[elem] = value
        self._fractions = None
        self._exact = True
        return self

    def fractions(self):
        """Masses as exact rationals, keyed by element: a read-only view, converted once.

        A rule result gives the exact value of each float; masses a user
        passed in go through :func:`to_fraction`.
        """
        if self._fractions is None:
            convert = Fraction if self._exact else to_fraction
            self._fractions = MappingProxyType({k: convert(v) for k, v in self.masses.items()})
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


def accumulate(sums, key, mass):
    """Add ``mass`` to ``sums[key]``; a key's first mass is stored as it is, not added to a zero."""
    prev = sums.get(key)
    sums[key] = mass if prev is None else prev + mass


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
        # per model: column sums, RawConjunctive, ConflictLedger, shared by every rule
        self._columns, self._consensus, self._ledgers = {}, {}, {}

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
        """Per-element sums of the source masses, keyed under ``model``, computed once per model.

        Keys are re-reduced when a different model is supplied (dynamic
        fusion), merging columns that the new constraints identify.
        """
        model = model or self.model
        if model not in self._columns:
            self._columns[model] = self._column_sums(model)
        return self._columns[model]

    def _column_sums(self, model):
        cols = {}
        for src in self.sources:
            for elem, mass in src.fractions().items():
                accumulate(cols, model.reduce(elem), mass)
        return ordered(cols)


def column_sum(matrix, element, model=None):
    """Sum of the masses the sources commit to one element."""
    model = model or matrix.model
    return float(matrix.column_sums(model).get(model.reduce(element), Fraction(0)))


def _numerators(src, key):
    """A source's masses as integer numerators over their least common denominator.

    Each entry is ``(key(element), clauses, numerator)``.
    """
    den = math.lcm(*(v.denominator for v in src.values()))
    return [(key(elem), elem.clauses, v.numerator * (den // v.denominator)) for elem, v in src.items()], den


def _fold(fracs, key, op, clauses_of):
    """Fold the sources' exact masses left to right, product by product, in integers.

    ``key(element)`` keys each focal element, ``op(a, b)`` maps the keys of
    two factors to the key that receives their product, and
    ``clauses_of(ka, ca, kb, cb)`` gives a clause tuple for a product, from
    the factors' keys and clauses, when it reaches a new key.  Entries of
    the first source that share a key are merged.  Each source is scaled to
    integer numerators over its own common denominator, so the fold is
    integer multiply-add.  Returns ``(entries, den)``: ``entries`` maps each
    key to ``[clauses, numerator]``, where ``absorb_masks(clauses)`` names
    the entry and ``Fraction(numerator, den)`` is its mass, the same
    rational as a fold of fractions (:func:`_named` builds that view).

    Keys come from :meth:`Model.keying`.  The conjunctive fold passes ``(key,
    meet, concatenation)``: an entry keeps the concatenated clauses of the
    first product that reaches it, whose absorbed form is their
    intersection, so no entry is named here.  The disjunctive fold passes
    ``(key, join, rules_core._unite)``, the union of the clauses.
    """
    entries, den = _numerators(fracs[0], key)
    acc = {}
    for k, clauses, v in entries:
        acc.setdefault(k, [clauses, 0])[1] += v
    for src in fracs[1:]:
        entries, d = _numerators(src, key)
        out = {}
        for ka, (ca, va) in acc.items():
            for kb, cb, vb in entries:
                k = op(ka, kb)
                if (entry := out.get(k)) is None:
                    out[k] = [clauses_of(ka, ca, kb, cb), va * vb]
                else:
                    entry[1] += va * vb
        acc, den = out, den * d
    return acc, den


def _concat(ka, ca, kb, cb):
    return ca + cb


def _named(entries, den, frame):
    """A fold's entries (:func:`_fold`) as elements mapped to exact masses."""
    return {frame.element(absorb_masks(clauses)): Fraction(v, den) for clauses, v in entries.values()}


class RawConjunctive:
    """Conjunctive consensus on the free lattice, as integer fold entries.

    ``reduced()`` gives the model view: merged non-empty masses, the
    per-element partial conflicts, and the total conflict.  ``masses`` is
    the free view, built on first read: free-canonical clause tuples wrapped
    as elements, mapped to exact rational masses, empty-intersection entries
    included, so the total is one.
    """

    __slots__ = ("model", "_entries", "_den", "_masses", "_reduced")

    def __init__(self, model, entries, den):
        self.model = model
        self._entries, self._den = entries, den
        self._masses = self._reduced = None

    @property
    def masses(self):
        if self._masses is None:
            self._masses = ordered(_named(self._entries, self._den, self.model.frame))
        return self._masses

    def reduced(self):
        """Return ``(nonempty, conflicts, k)`` under the model.

        Both maps are keyed by the elements :meth:`Model.reduce` returns; a
        partial conflict keeps its free canonical form, flagged empty.
        Entries are merged by their live key (:meth:`Model.keying`), with
        integer adds; a live key of 0 is a conflict.  :meth:`Model.name`
        names each merged group under its live key and each conflict under
        its free key, once per model.
        """
        if self._reduced is None:
            model, den = self.model, self._den
            live = model.keying()[4]
            groups, conflicts, k = {}, {}, 0
            for key, (clauses, v) in self._entries.items():
                here = live(key)
                if not here:
                    conflicts[model.name(key, clauses)] = Fraction(v, den)
                    k += v
                elif (group := groups.get(here)) is None:
                    groups[here] = [clauses, v]
                else:
                    group[1] += v
            nonempty = {model.name(here, clauses): Fraction(v, den) for here, (clauses, v) in groups.items()}
            self._reduced = ordered(nonempty), ordered(conflicts), Fraction(k, den)
        return self._reduced

    def total(self):
        return Fraction(sum(v for _, v in self._entries.values()), self._den)


def conjunctive(matrix, model=None) -> RawConjunctive:
    """Conjunctive consensus of all sources, computed once per matrix and model.

    Folds pairwise over canonical intermediate results, which is exact
    because intersection on the free lattice is associative.  Under a free
    model nothing is empty and the result is itself a proper assignment.
    """
    model = model or matrix.model
    raw = matrix._consensus.get(model)
    if raw is None:
        key, meet = model.keying()[:2]
        raw = matrix._consensus[model] = RawConjunctive(model, *_fold(matrix.fractions(), key, meet, _concat))
    return raw


@dataclass(frozen=True)
class ConflictTerm:
    """One product of focal elements with an empty combined intersection."""

    factors: tuple  # one (element, mass fraction) per source
    product: Fraction
    intersection: CanonicalElement  # free canonical form, flagged empty by the model


def walk_terms(model, focal_lists):
    """Every product of one focal element per source that is empty under ``model``: PCR5's terms.

    ``focal_lists`` holds each source's (element, exact mass) pairs in
    element order, such as ``src.fractions().items()``.  Returns the
    :class:`ConflictTerm` values in lexicographic factor order.  The walk is
    depth-first over the keys of :meth:`Model.keying`, so each prefix
    intersection and prefix product is computed once and shared by every
    term that extends it; at the last source a product is formed only for
    a conflicting leaf, one that the model leaves nothing alive of.  Only
    there is its intersection named, by :meth:`Model.name` under its free
    key from its factors' clauses, once per model.
    """
    key, meet, _, top, live = model.keying()

    def conflict(here, factors):
        if not live(here):
            return model.name(here, [c for e, _ in factors for c in e.clauses])

    keyed = [[(key(item[0]), item) for item in focals] for focals in focal_lists]
    terms = []
    _walk(keyed, meet, conflict, terms, (), Fraction(1), top)
    return terms


def _walk(keyed, meet, conflict, terms, factors, product, prefix):
    last = len(factors) + 1 == len(keyed)
    for key, item in keyed[len(factors)]:
        here = meet(prefix, key)
        if not last:
            _walk(keyed, meet, conflict, terms, factors + (item,), product * item[1], here)
        elif (red := conflict(here, factors + (item,))) is not None:
            terms.append(ConflictTerm(factors + (item,), product * item[1], red))


def involved(model, focal_lists):
    """PCR2's elements involved in the conflict, from keys alone.

    ``focal_lists`` holds each source's focal elements, such as
    ``src.fractions()``.  A focal element X of source i that is non-empty
    under ``model`` is involved when some conflicting product puts it at
    position i and it does not include the intersection R of the other
    factors.  The R range over a fold of the other sources' keys
    (:meth:`Model.keying`), with no masses, so no product term is listed: X
    is involved when ``meet(X, R)`` is empty and differs from R.
    """
    key, meet, _, top, live = model.keying()
    keyed = [[(key(elem), elem) for elem in focals] for focals in focal_lists]
    out = set()
    for i, focals in enumerate(keyed):
        rests = {top}
        for other in keyed[:i] + keyed[i + 1:]:
            rests = {meet(rest, k) for rest in rests for k, _ in other}
        out.update(elem for k, elem in focals if live(k) and any(
            not live(here := meet(k, rest)) and here != rest for rest in rests))
    return frozenset(out)


@dataclass(frozen=True)
class ConflictLedger:
    """PCR5's conflicting product terms, with the total conflict and its partial conflicts."""

    terms: tuple
    partials: dict  # free-canonical empty intersection -> summed mass
    k: Fraction


def conflict_ledger(matrix, model=None):
    """Every product of source focal elements whose intersection is empty, for PCR5.

    The partial conflicts and ``k`` are the matrix's conjunctive consensus;
    the terms come from one :func:`walk_terms` pass, made only when there
    is conflict.  The ledger is kept on the matrix per model.
    """
    model = model or matrix.model
    if model not in matrix._ledgers:
        _, partials, k = conjunctive(matrix, model).reduced()
        terms = walk_terms(model, [src.fractions().items() for src in matrix.sources]) if k else ()
        matrix._ledgers[model] = ConflictLedger(tuple(terms), partials, k)
    return matrix._ledgers[model]
