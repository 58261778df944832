"""Belief assignments, the mass matrix and the two passes over its products.

Rule arithmetic is exact, so that summation order can never perturb
results.  Masses a user passes in snap to small decimals through
:func:`to_fraction`.  A rule result is built by :meth:`Bba._result` from
floats that :func:`rules_core._finish` rounded once from the exact masses,
and it converts back to the exact value of each float, so every step of a
sequential fusion rounds once.  An exact mass is an integer numerator over
a denominator its assignment shares: :meth:`Bba.numerators`, the integer
view, built once per assignment, reads a rule result's floats with
``as_integer_ratio()`` and scales a user's snapped fractions, with no
``Fraction`` for a result.  The folds multiply and add these integers,
and the consensus's model view (:meth:`RawConjunctive.numerators`), its
free view (:meth:`RawConjunctive.free_numerators`) and the column sums
(:meth:`MassMatrix.column_numerators`) are integers too; their
``Fraction`` views are built only when read, and are the same rationals.

One product fold, :func:`_fold`, serves every rule but PCR5's walk: the
conjunctive consensus (:func:`conjunctive`, run at most once per matrix and
model), the disjunctive and Dubois-Prade folds, and hybrid DSm's fold over
empty focal elements.  The walk (:func:`walk_terms`) only lists the
conflicting product terms, for PCR5 (exact PCR5 through
:func:`conflict_ledger`), and no other rule walks.  It reads the same
integer views as the fold, so a term's product is an int over the product
of the views' denominators.  PCR2's involved elements (:func:`involved`)
come from folds of the sources' keys alone, with no masses.  A fold keeps
integer numerators and names no entry.  One model view, :func:`_view`,
reads the entries of the conjunctive and disjunctive folds: it merges them
by what the model leaves alive and names each merged element once per
model.  The consensus keeps its view (:meth:`RawConjunctive.numerators`);
its free view, in integers and as ``RawConjunctive.masses``, is built only
when read.  Every product pass takes its keys, intersection, union and
emptiness test from the model, :meth:`Model.keying`: region sets on frames
of at most six labels, where ``&`` and ``|`` intersect and unite, clause
tuples on larger (Shafer) frames.  The model names every product the passes read under it,
merged groups and conflicts of a fold and the walk's conflicting terms,
through :meth:`Model.name`, once per key.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .errors import BeliefFusionError, MassOnEmptyError, NegativeMassError, NotNormalizedError
from .kernels import absorb_masks
from .lattice import OPEN, ordered

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

    Maps canonical elements to masses.  Keys, on construction and on
    lookup, are read by :meth:`Model.canonical`: expression strings, the
    names ``θ0`` and ``∅`` as elements print them, or
    :class:`CanonicalElement` values, reduced under the model.  Keys are
    merged when equivalent, and masses below ``1e-12`` are pruned; a key
    of any other type raises ``TypeError``.  Construction rejects
    negative, non-numeric (booleans and strings included) and non-finite
    masses; :func:`validate_bba` additionally enforces normalization, the
    empty-mass discipline and θ0's need of a model that enables it.
    """

    __slots__ = ("model", "masses", "_fractions", "_exact", "_numerators")

    def __init__(self, model, masses):
        self.model = model
        merged = {}
        for key, value in (masses.items() if hasattr(masses, "items") else masses):
            try:
                elem = model.canonical(key)
            except TypeError:
                raise TypeError(f"bad mass key {key!r}") from None
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
            if value < MASS_EPS:
                continue
            merged[elem] = merged.get(elem, 0) + value
        self.masses = ordered(merged)
        self._fractions = self._numerators = None
        self._exact = False

    @classmethod
    def _result(cls, model, floats):
        """A rule's result from ``(element, float)`` pairs whose keys are already reduced, merged and sorted.

        Masses below ``1e-12`` are pruned and a negative mass is rejected.
        :meth:`fractions` and :meth:`numerators` give back the exact value of
        each float, so a fed-back result is not snapped.
        """
        self = cls.__new__(cls)
        self.model = model
        self.masses = {}
        for elem, value in floats:
            if value < 0:
                raise NegativeMassError(elem, value)
            if value >= MASS_EPS:
                self.masses[elem] = value
        self._fractions = self._numerators = None
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

    def numerators(self):
        """The integer view: ``(pairs, den)``, built once, that the folds read.

        ``pairs`` holds ``(element, numerator)`` in element order, and
        ``Fraction(numerator, den)`` is the element's mass in
        :meth:`fractions`.  A rule result reads its floats' exact ratios,
        whose denominators are powers of two, so no ``Fraction`` is built;
        masses a user passed in are scaled from their snapped fractions.
        """
        if self._numerators is None:
            self._numerators = _scaled(self.masses if self._exact else self.fractions())
        return self._numerators

    def total(self):
        return sum(self.masses.values())

    def __getitem__(self, key):
        return self.masses.get(self.model.canonical(key), 0.0)

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
    ``NegativeMassError`` on any negative mass, ``MassOnEmptyError``
    when mass sits on an empty element (in an open world only the classical
    empty set may carry mass), and ``BeliefFusionError`` on mass on θ0
    under a model that does not enable it.
    """
    total = b.total()
    for elem, value in b.items():
        if value < 0:
            raise NegativeMassError(elem, value)
        if elem.is_theta0 and not b.model.theta0_enabled:
            raise BeliefFusionError("mass on 'θ0' needs a model with theta0 enabled")
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

    __slots__ = ("sources", "model", "_columns", "_consensus")

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
        # per model: column sums and RawConjunctive, shared by every rule; PCR5
        # alone reads the conflict ledger, once per run, so it is not kept
        self._columns, self._consensus = {}, {}

    @property
    def s(self):
        return len(self.sources)

    def under(self, model=None):
        """The model a rule reads this matrix under: ``model``, or the matrix's own when None.

        Every rule resolves its model here first, so a ``model`` on another
        frame than the matrix's raises ``ValueError``, as mixed sources do.
        """
        if model is None or model is self.model:
            return self.model
        if model.frame != self.model.frame:
            raise ValueError(f"the model's frame {model.frame!r} is not the matrix's {self.model.frame!r}")
        return model

    def __len__(self):
        return len(self.sources)

    def __getitem__(self, i):
        return self.sources[i]

    def fractions(self):
        return tuple(src.fractions() for src in self.sources)

    def numerators(self):
        return tuple(src.numerators() for src in self.sources)

    def column_numerators(self, model=None):
        """Per-element sums of the source masses, keyed under ``model``, computed once per model.

        Returns ``(sums, den)``: integer numerators over the least common
        denominator of the sources' integer views.  Keys are re-reduced when
        a different model is supplied (dynamic fusion), merging columns that
        the new constraints identify.
        """
        model = self.under(model)
        if model not in self._columns:
            self._columns[model] = self._column_sums(model)
        return self._columns[model]

    def column_sums(self, model=None):
        """The column sums (:meth:`column_numerators`) as exact rationals."""
        return _over(*self.column_numerators(model))

    def _column_sums(self, model):
        views = self.numerators()
        den = math.lcm(*(d for _, d in views))
        cols = {}
        for pairs, d in views:
            for elem, n in pairs:
                key = model.reduce(elem)
                cols[key] = cols.get(key, 0) + n * (den // d)
        return ordered(cols), den


def column_sum(matrix, element, model=None):
    """Sum of the masses the sources commit to one element, read by :meth:`Model.canonical`."""
    model = matrix.under(model)
    sums, den = matrix.column_numerators(model)
    return sums.get(model.canonical(element), 0) / den


def _scaled(masses):
    """Exact masses by element (floats or fractions) as ``(pairs, den)``: numerators over one common denominator."""
    ratios = [(elem, v.as_integer_ratio()) for elem, v in masses.items()]
    den = math.lcm(*(q for _, (_, q) in ratios))
    return tuple((elem, p * (den // q)) for elem, (p, q) in ratios), den


def _fold(views, key, op, clauses_of):
    """Fold the sources' integer views left to right, product by product.

    ``views`` holds one ``(pairs, den)`` per source, as
    :meth:`Bba.numerators` gives them.  ``key(element)`` keys each focal
    element, ``op(a, b)`` maps the keys of two factors to the key ``k``
    that receives their product, and ``clauses_of(k, ka, ca, kb, cb)``
    gives a clause tuple for a product, from that key and the factors'
    keys and clauses, when it reaches a new key.  Entries of the first
    source that share a key are merged.  The fold is integer multiply-add.
    Returns ``(entries, den)``: ``entries`` maps each key to ``[clauses,
    numerator]``, where ``absorb_masks(clauses)`` names the entry and
    ``Fraction(numerator, den)`` is its mass, the same rational as a fold
    of fractions, and ``den`` is the product of the sources' denominators.
    No entry is named here: :func:`_view` reads free-keyed entries under a
    model, and a fold keyed by live keys names them with :meth:`Model.name`.

    Keys come from :meth:`Model.keying`.  The conjunctive fold passes ``(key,
    meet, concatenation)``: an entry keeps the concatenated clauses of the
    first product that reaches it, whose absorbed form is their
    intersection.  The disjunctive fold passes
    ``(key, join, rules_core._unite)``, the union of the clauses, which is
    the key itself where keys are clause tuples.
    """
    (pairs, den), *rest = views
    acc = {}
    for elem, v in pairs:
        acc.setdefault(key(elem), [elem.clauses, 0])[1] += v
    for pairs, d in rest:
        entries = [(key(elem), elem.clauses, v) for elem, v in pairs]
        out = {}
        for ka, (ca, va) in acc.items():
            for kb, cb, vb in entries:
                k = op(ka, kb)
                if (entry := out.get(k)) is None:
                    out[k] = [clauses_of(k, ka, ca, kb, cb), va * vb]
                else:
                    entry[1] += va * vb
        acc, den = out, den * d
    return acc, den


def _concat(k, ka, ca, kb, cb):
    return ca + cb


def _over(numerators, den):
    """Integer numerators over ``den`` as exact rationals."""
    return {elem: Fraction(v, den) for elem, v in numerators.items()}


def _view(model, entries):
    """A fold's entries (:func:`_fold`, keyed by free key) under ``model``: ``(nonempty, conflicts, k)``.

    Integer numerators, both maps keyed by the elements :meth:`Model.reduce`
    returns, in sorted order; a partial conflict keeps its free canonical
    form, flagged empty, and ``k`` is their sum.  Entries are merged by
    their live key (:meth:`Model.keying`), with integer adds; a live key of
    0 is a conflict.  :meth:`Model.name` names each merged group under its
    live key and each conflict under its free key, once per model.
    """
    live = model.keying()[4]
    groups, conflicts, k = {}, {}, 0
    for key, (clauses, v) in entries.items():
        here = live(key)
        if not here:
            conflicts[model.name(key, clauses)] = v
            k += v
        elif (group := groups.get(here)) is None:
            groups[here] = [clauses, v]
        else:
            group[1] += v
    nonempty = {model.name(here, clauses): v for here, (clauses, v) in groups.items()}
    return ordered(nonempty), ordered(conflicts), k


class RawConjunctive:
    """Conjunctive consensus on the free lattice, as integer fold entries over ``den``.

    ``numerators()`` gives the model view in integers (:func:`_view`):
    merged non-empty masses, the per-element partial conflicts, and the
    total conflict.  ``reduced()`` is the same view as exact rationals.
    ``free_numerators()`` is the free view: each entry's free canonical
    form, named from its clauses, with its integer numerator,
    empty-intersection entries included, so the total is ``den``; and
    ``masses`` is that view as exact rationals.  The views are built when
    read, and all but the free integer view are kept.
    """

    __slots__ = ("model", "den", "_entries", "_masses", "_numerators", "_reduced")

    def __init__(self, model, entries, den):
        self.model = model
        self._entries, self.den = entries, den
        self._masses = self._numerators = self._reduced = None

    def free_numerators(self):
        """The free view as ``(pairs, den)``, pairs in element order, as :meth:`Bba.numerators` gives one."""
        element = self.model.frame.element
        return ordered({element(absorb_masks(clauses)): v for clauses, v in self._entries.values()}).items(), self.den

    @property
    def masses(self):
        if self._masses is None:
            self._masses = _over(dict(self.free_numerators()[0]), self.den)
        return self._masses

    def numerators(self):
        """Return ``(nonempty, conflicts, k)``: :func:`_view` of the entries, integer numerators over ``den``."""
        if self._numerators is None:
            self._numerators = _view(self.model, self._entries)
        return self._numerators

    def reduced(self):
        """Return ``(nonempty, conflicts, k)`` as exact rationals: :meth:`numerators` over ``den``."""
        if self._reduced is None:
            nonempty, conflicts, k = self.numerators()
            self._reduced = _over(nonempty, self.den), _over(conflicts, self.den), Fraction(k, self.den)
        return self._reduced


def conjunctive(matrix, model=None) -> RawConjunctive:
    """Conjunctive consensus of all sources, computed once per matrix and model.

    Folds pairwise over canonical intermediate results, which is exact
    because intersection on the free lattice is associative.  Under a free
    model nothing is empty and the result is itself a proper assignment.
    """
    model = matrix.under(model)
    raw = matrix._consensus.get(model)
    if raw is None:
        key, meet = model.keying()[:2]
        raw = matrix._consensus[model] = RawConjunctive(model, *_fold(matrix.numerators(), key, meet, _concat))
    return raw


class ConflictTerm(namedtuple("ConflictTerm", "factors product intersection")):
    """One product of focal elements with an empty combined intersection.

    ``factors`` holds one ``(element, numerator)`` per walked view, its
    mass over that view's denominator; ``product`` is the int product of
    the numerators, over the product of the views' denominators (the
    consensus's ``den``); ``intersection`` is the free canonical form of
    the factors' intersection, flagged empty by the model.
    """

    __slots__ = ()


def walk_terms(model, views):
    """Every product of one focal element per source that is empty under ``model``: PCR5's terms.

    ``views`` holds one integer view ``(pairs, den)`` per source, in
    element order, as :meth:`Bba.numerators` and
    :meth:`RawConjunctive.free_numerators` give them.  Returns the
    :class:`ConflictTerm` values in lexicographic factor order, with int
    numerators and products.  The walk is depth-first over the keys of
    :meth:`Model.keying`, so each prefix intersection and prefix product is
    computed once and shared by every term that extends it; at the last
    source a product is formed only for a conflicting leaf, one that the
    model leaves nothing alive of.  Only there is its intersection named,
    by :meth:`Model.name` under its free key from its factors' clauses,
    once per model.
    """
    key, meet, _, top, live = model.keying()

    def conflict(here, factors):
        if not live(here):
            return model.name(here, [c for e, _ in factors for c in e.clauses])

    keyed = [[(key(item[0]), item) for item in pairs] for pairs, _ in views]
    terms = []
    _walk(keyed, meet, conflict, terms, (), 1, top)
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

    ``focal_lists`` holds each source's focal elements, such as the
    sources themselves.  A focal element X of source i that is non-empty
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


class ConflictLedger(namedtuple("ConflictLedger", "terms")):
    """PCR5's conflicting product terms; the partial conflicts and ``k`` are the consensus's."""

    __slots__ = ()


def conflict_ledger(matrix, model=None):
    """Every product of source focal elements whose intersection is empty, for PCR5.

    The terms come from one :func:`walk_terms` pass over the sources'
    integer views, made only when the matrix's conjunctive consensus has
    conflict.
    """
    model = matrix.under(model)
    if not conjunctive(matrix, model).numerators()[2]:
        return ConflictLedger(())
    return ConflictLedger(tuple(walk_terms(model, matrix.numerators())))
