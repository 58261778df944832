"""Frames, canonical lattice elements, and emptiness under a model.

Elements of the power set or hyper-power set are kept in a unique reduced
conjunctive normal form: an antichain of clauses, each clause a bitmask of
frame labels.  Two expressions denote the same lattice element exactly when
they normalize to the same clause tuple.  A model (free / Shafer / hybrid
with explicit constraints) decides which elements are empty and can rewrite
an element to its simplest equivalent form.

Hybrid models decide emptiness on the Venn diagram of the frame: with n
labels in general position there are 2^n - 1 minimal regions, one per
non-empty label set, and an element is the set of regions it covers, a
bitmask (Smarandache's codification of the Venn-diagram parts).  One
constant table per label count gives, for each clause mask, the regions the
clause meets; both directions between clauses and regions read it.  On
frames of at most six labels every element's free region set
(:attr:`CanonicalElement.regions`) is read from that table, and every model
keeps the mask of regions it leaves alive, so the product passes in
:mod:`bba` intersect and test for emptiness with ``&``.  Those passes take
their keys from :meth:`Model.keying` (region sets there, clause tuples on
larger Shafer frames), name products through :meth:`Model.name` and order
mass maps with :func:`ordered`, so only this module knows how elements are
keyed, named and ordered.  One pattern defines a label: :class:`Frame`
accepts only labels it matches whole, and the expression parser reads its
tokens with it, so every label parses back.  The parser builds clause
tuples directly, with no parse tree: each label is a one-clause tuple,
combined by the :mod:`kernels` as it is read.  :meth:`Model.reduce` and
the prime forms work on clause tuples through the kernels too.  The
disjunctive form a degenerate conflict falls back to is built here alone,
from a label mask, by :meth:`Model.disjunctive`.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import and_, attrgetter, or_

from .errors import CapacityError, ExprSyntaxError, UnknownLabelError
from .kernels import absorb_masks, intersect_canon, union_canon

MAX_POWERSET_LABELS = 16
MAX_HYPER_LABELS = 6

# A label is a run of characters that are neither whitespace nor an operator;
# the parser's tokens are the operators and the runs of this one pattern.
_LABEL = re.compile(r"[^\s|&()]+")
_TOKEN = re.compile(r"[|&()]|" + _LABEL.pattern)
# the names under which θ0 and ∅ print, which only Model.canonical reads
_RESERVED = ("∅", "θ0")


class Frame:
    """An ordered frame of discernment: distinct hypothesis labels.

    A label is a non-empty run of characters that are neither whitespace
    nor one of ``|&()``, so the parser reads every label back as one token;
    ``∅`` and ``θ0`` are refused, being the names of the empty set and the
    closure hypothesis.
    """

    __slots__ = ("labels", "n", "full_mask", "_index")

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise CapacityError("frame must contain at least one hypothesis")
        if len(set(labels)) != len(labels):
            raise CapacityError("frame labels must be distinct")
        if len(labels) > MAX_POWERSET_LABELS:
            raise CapacityError(
                f"frame has {len(labels)} labels, maximum is {MAX_POWERSET_LABELS}"
            )
        for lab in labels:
            if lab in _RESERVED or not _LABEL.fullmatch(lab):
                raise CapacityError(f"invalid label {lab!r}")
        self.labels = labels
        self.n = len(labels)
        self.full_mask = (1 << self.n) - 1
        self._index = {lab: i for i, lab in enumerate(labels)}

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def element(self, clauses, empty=False):
        """Wrap a canonical clause tuple without re-normalizing it."""
        return CanonicalElement(self, tuple(clauses), empty)

    def singleton(self, label):
        return self.element((1 << self.index(label),))

    def total_ignorance(self):
        return self.element((self.full_mask,))

    def empty_element(self):
        return self.element((0,), empty=True)

    def theta0(self):
        """Closure hypothesis standing for any missing alternatives."""
        return self.element((), empty=False)

    def mask_str(self, mask):
        return "|".join(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def __repr__(self):
        return f"Frame({list(self.labels)!r})"

    def __eq__(self, other):
        return isinstance(other, Frame) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)


class CanonicalElement:
    """A lattice element in reduced conjunctive normal form.

    ``clauses`` is a sorted tuple of label bitmasks forming an antichain;
    the element is the intersection of its clauses, each clause the union of
    its labels.  ``empty`` records whether the element is empty under the
    model that produced it.  Equality, ordering and hashing are structural
    on the clause tuple only, so the same element compares equal whether or
    not a model has flagged it.  Its region set and its printed name are
    each built on first read and kept, so an element the model caches is
    named once however many results print it.
    """

    __slots__ = ("frame", "clauses", "empty", "_hash", "_regions", "_text")

    def __init__(self, frame, clauses, empty=False):
        self.frame = frame
        self.clauses = clauses
        self.empty = empty
        self._hash = hash(clauses)
        self._regions = self._text = None

    @property
    def regions(self):
        """The free region set (:func:`region_set`), on frames of at most six labels; computed once."""
        if self._regions is None:
            self._regions = region_set(self.clauses, self.frame.n)
        return self._regions

    @property
    def is_theta0(self):
        return self.clauses == ()

    @property
    def is_classical_empty(self):
        return self.clauses == (0,)

    def labels_mask(self):
        """Union of all labels occurring in the element, whose disjunctive form :meth:`Model.disjunctive` builds."""
        m = 0
        for c in self.clauses:
            m |= c
        return m

    def __eq__(self, other):
        return isinstance(other, CanonicalElement) and self.clauses == other.clauses

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.clauses < other.clauses

    def __str__(self):
        if self._text is None:
            if self.is_theta0:
                self._text = "θ0"
            elif self.is_classical_empty:
                self._text = "∅"
            else:
                parts = []
                for c in self.clauses:
                    s = self.frame.mask_str(c)
                    if len(self.clauses) > 1 and "|" in s:
                        s = f"({s})"
                    parts.append(s)
                self._text = "&".join(parts)
        return self._text

    def __repr__(self):
        flag = ", empty" if self.empty else ""
        return f"<{self}{flag}>"


def ordered(masses):
    """``masses`` with its elements in sorted order (by clause tuple): the order every mass map keeps."""
    return {k: masses[k] for k in sorted(masses, key=attrgetter("clauses"))}


# --- set expressions -------------------------------------------------------


def free_clauses(text, frame):
    """Parse a set expression over the frame's labels to its free canonical clause tuple.

    Grammar: ``expr := term ('|' term)*``, ``term := atom ('&' atom)*``,
    ``atom := label | '(' expr ')'``.  Intersection binds tighter than
    union.  One ``finditer`` reads the tokens: the operators, and the runs
    of the pattern :class:`Frame` checks its labels with.  Whitespace (the
    characters ``str.isspace`` accepts) separates tokens and is otherwise
    ignored.  The parser builds clause tuples as it reads: a label is
    ``(1 << i,)``, a term folds its atoms with :func:`intersect_canon` and
    an expression its terms with :func:`union_canon`.  Each open
    parenthesis keeps the enclosing expression's partial union and term on
    an explicit stack, so any depth parses.
    """
    tokens = list(_TOKEN.finditer(text))
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)
    index = frame._index
    stack = []  # per open parenthesis: the enclosing (union, term) read so far
    union = term = None
    want_atom = True
    for tok in tokens:
        value = tok[0]
        if want_atom:
            if value == "(":
                stack.append((union, term))
                union = term = None
                continue
            if value in ("|", "&", ")"):
                raise ExprSyntaxError("expected a label or '('", tok.start())
            if value not in index:
                raise UnknownLabelError(value, tok.start())
            atom = (1 << index[value],)
        elif value == "&":
            want_atom = True
            continue
        elif value == "|":
            union = term if union is None else union_canon(union, term)
            term, want_atom = None, True
            continue
        elif value == ")" and stack:
            atom = term if union is None else union_canon(union, term)
            union, term = stack.pop()
        elif stack:
            raise ExprSyntaxError("expected ')'", tok.start())
        else:
            raise ExprSyntaxError(f"unexpected {value!r}", tok.start())
        term = atom if term is None else intersect_canon(term, atom)
        want_atom = False
    if want_atom:
        raise ExprSyntaxError("expected a label or '('", len(text))
    if stack:
        raise ExprSyntaxError("expected ')'", len(text))
    return term if union is None else union_canon(union, term)


def parse_expr(text, frame):
    """Parse a set expression (:func:`free_clauses`) to its free canonical element."""
    return frame.element(free_clauses(text, frame))


# --- models ---------------------------------------------------------------


def _region_table(n):
    """For each clause mask over ``n`` labels, the bitmask of the minimal regions it meets."""
    rows = [0] * (1 << n)
    for region in range(1, 1 << n):
        for c in range(1, 1 << n):
            if region & c:
                rows[c] |= 1 << (region - 1)
    return tuple(rows)


_REGION_TABLES = {n: _region_table(n) for n in range(1, MAX_HYPER_LABELS + 1)}


def region_set(clauses, n):
    """Bitmask of the minimal regions an element covers on the free lattice of ``n`` labels.

    Region ``r`` (a non-empty label set) is bit ``r - 1``, and the element
    is the AND of its clauses' rows of the region table, so intersection
    is ``&`` and union is ``|``.  ∅ is 0.  θ0, the empty clause tuple, is
    -1: every bit set, the top element under both operations, as ``()`` is
    for the clause kernels, and distinct from the total ignorance.
    """
    table = _REGION_TABLES[n]
    mask = -1
    for c in clauses:
        mask &= table[c]
    return mask


FREE = "free"
SHAFER = "shafer"
HYBRID = "hybrid"

CLOSED = "closed"
OPEN = "open"


class Model:
    """A frame plus integrity constraints deciding which elements are empty.

    ``shafer`` makes all distinct singletons pairwise exclusive (power-set
    work); ``free`` imposes no constraints; ``hybrid`` takes an explicit set
    of elements forced to be empty, with the consequences propagated to
    everything they cover.  Free and hybrid models work on the hyper-power
    set and are capped at six labels; Shafer models allow sixteen.
    """

    __slots__ = (
        "frame", "kind", "constraints", "world", "theta0_enabled",
        "_alive", "_reduce_cache",
    )

    def __init__(self, frame, kind=SHAFER, constraints=(), world=CLOSED, theta0=False):
        if kind not in (FREE, SHAFER, HYBRID):
            raise ValueError(f"unknown model kind {kind!r}")
        if world not in (CLOSED, OPEN):
            raise ValueError(f"unknown world flag {world!r}")
        self.frame = frame
        self.kind = kind
        self.world = world
        self.theta0_enabled = bool(theta0)
        # clause tuple -> reduced element (reduce); under a product's live or
        # free key (keying), the element name() gave it
        self._reduce_cache = {}
        if kind == SHAFER:
            if constraints:
                raise ValueError("a Shafer model takes no extra constraints")
            self.constraints = ()
        else:
            if frame.n > MAX_HYPER_LABELS:
                raise CapacityError(
                    f"hyper-power-set models are limited to {MAX_HYPER_LABELS} labels"
                )
            canon = []
            for c in constraints:
                canon.append(self._free_element(c))
            if kind == FREE and canon:
                raise ValueError("a free model takes no constraints")
            self.constraints = tuple(sorted(canon))
        self._alive = self._live_regions() if frame.n <= MAX_HYPER_LABELS else None

    def _live_regions(self):
        """The regions this model leaves non-empty, as a mask over region sets.

        A Shafer model empties every region of two or more labels; a hybrid
        model the regions its constraints cover.  The mask is the complement
        of the emptied regions, so every bit above the frame's regions stays
        set and θ0 (region set -1) is never empty.
        """
        full = _REGION_TABLES[self.frame.n][-1]
        if self.kind == SHAFER:
            killed = full & ~sum(1 << ((1 << i) - 1) for i in range(self.frame.n))
        else:
            killed = 0
            for e in self.constraints:
                killed |= region_set(e.clauses, self.frame.n)
        return ~(killed & full)

    def _free_element(self, spec):
        if isinstance(spec, str):
            return parse_expr(spec, self.frame)
        if isinstance(spec, CanonicalElement):
            return spec
        raise TypeError(f"not a set expression: {spec!r}")

    def canonical(self, spec):
        """Parse/normalize ``spec`` and reduce it under this model.

        The whole text ``θ0`` or ``∅`` reads as the element that prints
        under that name, so every element's ``str`` reads back; inside an
        expression neither name parses.
        """
        if spec in _RESERVED:
            spec = self.frame.theta0() if spec == "θ0" else self.frame.empty_element()
        return self.reduce(self._free_element(spec))

    def reduce(self, element):
        """Simplest model-equivalent form of an element, empty flag set.

        Non-empty elements are rewritten to the canonical representative of
        their equivalence class under the constraints (for a Shafer model:
        the common part of all clauses).  Empty elements keep their free
        canonical form so distinct partial conflicts stay distinguishable.
        """
        key = element.clauses
        hit = self._reduce_cache.get(key)
        if hit is not None:
            return hit
        out = self._reduce_clauses(key)
        self._reduce_cache[key] = out
        return out

    def disjunctive(self, mask):
        """The disjunctive form of a label mask under this model: one clause of its labels, reduced.

        A degenerate conflict falls back to the disjunctive form of its
        labels (``element.labels_mask()``); mask 0 gives ∅.  Every region
        the model leaves alive has its subsets alive too, so the form keeps
        exactly the labels whose singleton is alive, and is empty when none
        is.
        """
        return self.reduce(self.frame.element((mask,)))

    def keying(self):
        """How the product passes key, intersect, unite and test elements: ``(key, meet, join, top, live)``.

        ``key(element)`` is the element's free key, ``meet`` intersects two
        keys and ``join`` unites them, ``top`` is the key of θ0 (the unit of
        ``meet``), and ``live(key)``, the live key, is 0 exactly when the
        element is empty under this model, and equal for elements the model
        identifies; ``&`` and ``|`` intersect and unite live keys.  On a
        frame of at most six labels a key is the free region set, ``meet`` is
        ``&``, ``join`` is ``|`` and ``live`` keeps the regions the model
        leaves alive.  On a larger (Shafer) frame a key is the clause tuple
        and ``live`` the labels every clause holds: the reduced element's mask
        (θ0 keeps -1).  The tuple is built per call from the kernels as this
        module binds them then, so a tracer that rebinds them sees the calls.
        """
        if self._alive is None:
            return attrgetter("clauses"), intersect_canon, union_canon, (), _common_labels
        return attrgetter("regions"), and_, or_, -1, self._alive.__and__

    def name(self, key, clauses):
        """The reduced element of a product, named once per key.

        ``key`` is the product's live key, or for an empty product its free
        key (:meth:`keying`); ``clauses`` are its factors' clauses, whose
        absorbed form is the product's free canonical form.  A free key of
        an empty product never equals a live key: on a frame of at most six
        labels their region sets are disjoint, on a larger one the first is
        a clause tuple and the second an int.  So both share the reduce
        cache.
        """
        elem = self._reduce_cache.get(key)
        if elem is None:
            elem = self._reduce_cache[key] = self.reduce(self.frame.element(absorb_masks(clauses)))
        return elem

    def _reduce_clauses(self, clauses):
        frame = self.frame
        if clauses == ():
            return frame.theta0()
        if clauses == (0,):
            return frame.empty_element()
        if self.kind == FREE:
            return frame.element(clauses)
        if self.kind == SHAFER:
            inter = frame.full_mask
            for c in clauses:
                inter &= c
            if inter:
                return frame.element((inter,))
            return frame.element(clauses, empty=True)
        cells = region_set(clauses, frame.n) & self._alive
        if not cells:
            return frame.element(clauses, empty=True)
        return frame.element(self._prime_clauses(cells))

    def _prime_clauses(self, cellmask):
        """Reduced conjunctive form of a non-empty region set.

        A clause is an implicate when it meets every region of the set; the
        form is the antichain of the minimal implicates.
        """
        table = _REGION_TABLES[self.frame.n]
        return absorb_masks([c for c in range(1, len(table)) if not cellmask & ~table[c]])

    def total_ignorance(self):
        return self.reduce(self.frame.total_ignorance())

    def __eq__(self, other):
        return (
            isinstance(other, Model)
            and self.frame == other.frame
            and self.kind == other.kind
            and self.constraints == other.constraints
            and self.world == other.world
            and self.theta0_enabled == other.theta0_enabled
        )

    def __hash__(self):
        return hash((self.frame, self.kind, self.constraints, self.world, self.theta0_enabled))

    def __repr__(self):
        extra = f", constraints={[str(c) for c in self.constraints]}" if self.constraints else ""
        return f"Model({self.frame!r}, {self.kind!r}{extra}, world={self.world!r})"


def _common_labels(clauses):
    return reduce(and_, clauses, -1)


def shafer_as_hybrid(frame, world=CLOSED, theta0=False):
    """The Shafer model spelled as explicit pairwise exclusivity constraints."""
    constraints = []
    for i in range(frame.n):
        for j in range(i + 1, frame.n):
            constraints.append(frame.element(absorb_masks([1 << i, 1 << j])))
    return Model(frame, HYBRID, constraints, world=world, theta0=theta0)

