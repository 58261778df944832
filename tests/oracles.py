"""Independent reference implementations used to cross-check the engine.

Everything here except :func:`conflict_ledger_reference`,
:func:`pcr5_enumeration_reference`, :func:`fraction_fold_reference` and
:func:`dubois_prade_combine_reference` works on a different representation
(frozen sets of Venn regions / label sets) with its own tiny parser,
deliberately sharing no code with the package under test.  The first two
reuse the package's lattice (canonical intersection and model reduction,
checked against the region oracle elsewhere) and check only the term
enumeration: a flat product in place of the package's depth-first walk and
its conflict ledger.  The fold reference takes clause-tuple combine
functions, the package's kernels or the Dubois-Prade combine here, and
checks only the arithmetic.  The Dubois-Prade combine reduces every product
under the model, where the package's fold intersects and unites the keys
the model leaves alive.  :func:`contains` tests free-lattice containment
on the package's clause tuples, with no package code.
"""

from fractions import Fraction
from itertools import product


def contains(x, y):
    """Free-lattice containment: does element ``x`` include element ``y``?

    For reduced conjunctive normal forms, X includes Y exactly when every
    clause of X has some clause of Y as a subset.
    """
    return all(any(f & ~e == 0 for f in y.clauses) for e in x.clauses)


class RegionOracle:
    """Interprets set expressions over the minimal regions of a free Venn diagram.

    With n labels in general position there are 2^n - 1 non-empty minimal
    regions, one per non-empty subset of labels; a label denotes the union
    of all regions whose subset contains it.  Two expressions denote the
    same lattice element exactly when they evaluate to the same region set.
    """

    def __init__(self, labels):
        self.labels = list(labels)
        n = len(self.labels)
        self.universe = frozenset(range(1, 1 << n))

    def label_regions(self, name):
        i = self.labels.index(name)
        return frozenset(r for r in self.universe if r >> i & 1)

    def evaluate(self, text):
        tokens = self._tokens(text)
        pos = [0]

        def peek():
            return tokens[pos[0]] if pos[0] < len(tokens) else None

        def take():
            tok = tokens[pos[0]]
            pos[0] += 1
            return tok

        def expr():
            value = term()
            while peek() == "|":
                take()
                value = value | term()
            return value

        def term():
            value = atom()
            while peek() == "&":
                take()
                value = value & atom()
            return value

        def atom():
            tok = take()
            if tok == "(":
                value = expr()
                assert take() == ")"
                return value
            return self.label_regions(tok)

        result = expr()
        assert pos[0] == len(tokens), f"trailing tokens in {text!r}"
        return result

    @staticmethod
    def _tokens(text):
        out, i = [], 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "|&()":
                out.append(ch)
                i += 1
            else:
                j = i
                while j < len(text) and not text[j].isspace() and text[j] not in "|&()":
                    j += 1
                out.append(text[i:j])
                i = j
        return out


def prime_clauses_of_regions(regions, n):
    """Unique reduced conjunctive form of an upward-closed region set.

    Returns the inclusion-minimal label sets (as bitmasks) hitting every
    minimal region.  Brute force over all 2^n - 1 candidate clauses.
    """
    regs = sorted(regions)
    minimal = [r for r in regs if not any(t != r and t & ~r == 0 for t in regs)]
    hitting = [c for c in range(1, 1 << n) if all(r & c for r in minimal)]
    return tuple(c for c in hitting if not any(h != c and h & ~c == 0 for h in hitting))


def pcr5_reference(sources):
    """Brute-force two-to-many source PCR5 on a Shafer model.

    ``sources`` is a list of dicts mapping frozensets of labels to exact
    rational masses.  Enumerates every product term directly; conflicting
    terms are split over the distinct factor elements that are not strict
    supersets of another factor element, each weighted by the product of
    the masses it received in the term.
    """
    out = {}
    pools = [sorted(src.items(), key=lambda kv: sorted(kv[0])) for src in sources]
    for combo in product(*pools):
        inter = combo[0][0]
        prod = Fraction(1)
        for elem, mass in combo:
            inter = inter & elem
            prod *= mass
        if prod == 0:
            continue
        if inter:
            out[inter] = out.get(inter, Fraction(0)) + prod
            continue
        groups = {}
        for elem, mass in combo:
            groups[elem] = groups.get(elem, Fraction(1)) * mass
        dests = [e for e in groups if not any(f < e for f in groups)]
        total = sum(groups[e] for e in dests)
        for e in dests:
            out[e] = out.get(e, Fraction(0)) + prod * groups[e] / total
    return out


def conjunctive_reference(sources):
    """Brute-force conjunctive consensus on a Shafer model (empty set kept)."""
    out = {}
    for combo in product(*[list(src.items()) for src in sources]):
        inter = combo[0][0]
        prod = Fraction(1)
        for elem, mass in combo:
            inter = inter & elem
            prod *= mass
        out[inter] = out.get(inter, Fraction(0)) + prod
    return out


def disjunctive_reference(sources):
    """Brute-force disjunctive consensus."""
    out = {}
    for combo in product(*[list(src.items()) for src in sources]):
        union = combo[0][0]
        prod = Fraction(1)
        for elem, mass in combo:
            union = union | elem
            prod *= mass
        out[union] = out.get(union, Fraction(0)) + prod
    return out


def conflict_ledger_reference(matrix, model=None):
    """Conflict ledger by flat enumeration of the full s-fold product.

    Returns ``(terms, partials, k, involved)`` where ``terms`` lists the
    conflicting ``(factors, product, intersection)`` triples in product
    order.  Each term folds its own intersection, and ``involved`` tests
    every factor against the intersection of the others, recomputed per
    factor.
    """
    from massfusion.kernels import intersect_canon

    model = model or matrix.model
    frame = model.frame
    focal = [sorted(src.fractions().items()) for src in matrix.sources]
    terms = []
    involved = set()
    for combo in product(*focal):
        clauses = combo[0][0].clauses
        prod = combo[0][1]
        for elem, mass in combo[1:]:
            clauses = intersect_canon(clauses, elem.clauses)
            prod *= mass
        if prod == 0 or not model.reduce(frame.element(clauses)).empty:
            continue
        terms.append((tuple(combo), prod, frame.element(clauses, empty=True)))
        for i, (elem, _) in enumerate(combo):
            if model.reduce(elem).empty:
                continue
            rest = None
            for j, (other, _) in enumerate(combo):
                if j != i:
                    rest = other.clauses if rest is None else intersect_canon(rest, other.clauses)
            if not contains(elem, frame.element(rest)):
                involved.add(elem)
    partials = {}
    for _, prod, inter in terms:
        partials[inter] = partials.get(inter, Fraction(0)) + prod
    k = sum((prod for _, prod, _ in terms), Fraction(0))
    return terms, partials, k, frozenset(involved)


def pcr5_enumeration_reference(model, focal_lists, diag=None):
    """PCR5 streamed over the flat product of the given focal lists.

    ``focal_lists`` holds one sorted list of ``(element, exact mass)``
    pairs per source.  Each product term is handled as soon as it is
    formed: a non-empty one adds its product to its reduced intersection,
    a conflicting one is split at once by the package's per-term unit and
    redistribution loop, whose int-pair shares are summed as ``Fraction``s
    under their reduced destinations at the end.
    Returns the rational masses; records and fallbacks go to ``diag`` in
    product order.
    """
    from massfusion.bba import ConflictTerm
    from massfusion.kernels import intersect_canon
    from massfusion._transfer import redistribute
    from massfusion.rules_pcr import _term_unit

    frame = model.frame
    out, shares = {}, {}
    for combo in product(*focal_lists):
        clauses = combo[0][0].clauses
        prod = combo[0][1]
        for elem, mass in combo[1:]:
            clauses = intersect_canon(clauses, elem.clauses)
            prod *= mass
        red = model.reduce(frame.element(clauses))
        if not red.empty:
            out[red] = out.get(red, Fraction(0)) + prod
        else:
            term = ConflictTerm(tuple(combo), prod, frame.element(clauses, empty=True))
            redistribute(model, shares, [_term_unit(model, term)], diag)
    for elem, pairs in shares.items():
        red = model.reduce(elem)
        out[red] = out.get(red, Fraction(0)) + sum(Fraction(p, q) for p, q in pairs)
    return {k: out[k] for k in sorted(out)}


def fraction_fold_reference(fracs, combine):
    """The sources' masses folded left to right in plain ``Fraction`` arithmetic.

    Takes the package fold's arguments: ``fracs`` holds one mapping of
    elements to exact masses per source, and ``combine(a, b)`` maps two
    clause tuples to the clause tuple receiving their product.  Returns
    clause tuples mapped to summed masses.  The package's ``_fold`` instead
    returns integer entries over one common denominator, so tests compare
    with it after naming its entries.  Every product and sum here is a
    ``Fraction`` operation; no common denominator is taken.
    """
    acc = {elem.clauses: mass for elem, mass in fracs[0].items()}
    for src in fracs[1:]:
        out = {}
        for ca, va in acc.items():
            for elem, vb in src.items():
                key = combine(ca, elem.clauses)
                out[key] = out.get(key, Fraction(0)) + va * vb
        acc = out
    return acc


def dubois_prade_combine_reference(model):
    """Where Dubois-Prade sends a product of two clause tuples, for :func:`fraction_fold_reference`.

    The intersection under the model when it is non-empty, else the union
    of the factors, else the total ignorance, each as the clause tuple
    :meth:`Model.reduce` gives; every product is reduced twice.
    """
    from massfusion.kernels import intersect_canon, union_canon

    frame = model.frame

    def combine(a, b):
        inter = model.reduce(frame.element(intersect_canon(a, b)))
        if not inter.empty:
            return inter.clauses
        union = model.reduce(frame.element(union_canon(a, b)))
        return (model.total_ignorance() if union.empty else union).clauses

    return combine
