"""Transfer records and fallback events emitted by the redistribution rules.

A rule hands :meth:`Diagnostics.record` and :meth:`Diagnostics.fallback`
each amount as it holds it: an int pair ``(p, q)`` for ``p/q``, as the
shares of :mod:`_transfer` are, or a ``Fraction``.  The collector keeps
what it is given, and turns every pair into the same exact ``Fraction`` on
the first read of :attr:`Diagnostics.records` or
:attr:`Diagnostics.fallbacks`, so a run whose records nobody reads builds
no ``Fraction`` for them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class RedistributionRecord(namedtuple("RedistributionRecord", "source destination amount constant",
                                      defaults=(None,))):
    """One proportional transfer out of a partial conflict or product term.

    ``source`` is the conflicting element, or a term's factor tuple;
    ``constant`` is the normalization constant of the split.
    """

    __slots__ = ()


class FallbackEvent(namedtuple("FallbackEvent", "source stage destination amount")):
    """A transfer that had to walk the degenerate-case chain.

    ``stage`` is one of column-sums, disjunctive-form, total-ignorance,
    theta0 and empty-set.
    """

    __slots__ = ()


def _exact(amount):
    """An amount as read back: an int pair ``(p, q)`` becomes ``Fraction(p, q)``; anything else is kept."""
    return Fraction(*amount) if type(amount) is tuple else amount


_FIELDS = ("records", "fallbacks", "sum_deficit", "order", "notes")


class Diagnostics:
    """Mutable collector handed to a rule invocation.

    ``records`` holds ordinary proportional transfers, ``fallbacks`` the
    degenerate-case ones, each amount (and a record's constant) an exact
    ``Fraction``.  :meth:`record` and :meth:`fallback` take an amount as a
    ``Fraction`` or an int pair ``(p, q)``; pairs become ``Fraction``s
    when the list is read.  ``sum_deficit`` is set when a rule knowingly
    returns an under-normalized assignment (static weighted averaging on
    dynamically emptied frames).  ``order`` reports the source order an
    order-dependent rule actually used.
    """

    __slots__ = ("_records", "_fallbacks", "_new_records", "_new_fallbacks", "sum_deficit", "order", "notes")

    def __init__(self):
        self._records, self._fallbacks = [], []
        self._new_records, self._new_fallbacks = [], []  # as given, not yet read
        self.sum_deficit = None
        self.order = None
        self.notes = []

    def __eq__(self, other):
        return type(other) is Diagnostics and all(getattr(self, f) == getattr(other, f) for f in _FIELDS)

    def record(self, source, destination, amount, constant=None):
        self._new_records.append((source, destination, amount, constant))

    def fallback(self, source, stage, destination, amount):
        self._new_fallbacks.append((source, stage, destination, amount))

    @property
    def records(self):
        """The :class:`RedistributionRecord` list, its new entries' amounts made exact on this read."""
        if self._new_records:
            self._records.extend(RedistributionRecord(source, dest, _exact(amount), _exact(constant))
                                 for source, dest, amount, constant in self._new_records)
            self._new_records.clear()
        return self._records

    @property
    def fallbacks(self):
        """The :class:`FallbackEvent` list, its new entries' amounts made exact on this read."""
        if self._new_fallbacks:
            self._fallbacks.extend(FallbackEvent(source, stage, dest, _exact(amount))
                                   for source, stage, dest, amount in self._new_fallbacks)
            self._new_fallbacks.clear()
        return self._fallbacks
