"""Transfer records and fallback events emitted by the redistribution rules."""

from __future__ import annotations

from collections import namedtuple


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


class Diagnostics:
    """Mutable collector handed to a rule invocation.

    ``records`` holds ordinary proportional transfers, ``fallbacks`` the
    degenerate-case ones.  ``sum_deficit`` is set when a rule knowingly
    returns an under-normalized assignment (static weighted averaging on
    dynamically emptied frames).  ``order`` reports the source order an
    order-dependent rule actually used.
    """

    __slots__ = ("records", "fallbacks", "sum_deficit", "order", "notes")

    def __init__(self):
        self.records = []
        self.fallbacks = []
        self.sum_deficit = None
        self.order = None
        self.notes = []

    def __eq__(self, other):
        return type(other) is Diagnostics and all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def record(self, source, destination, amount, constant=None):
        self.records.append(RedistributionRecord(source, destination, amount, constant))

    def fallback(self, source, stage, destination, amount):
        self.fallbacks.append(FallbackEvent(source, stage, destination, amount))
