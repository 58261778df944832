"""Transfer records and fallback events emitted by the redistribution rules."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class RedistributionRecord:
    """One proportional transfer out of a partial conflict or product term."""

    source: object  # the conflicting element, or a term's factor tuple
    destination: object
    amount: Fraction
    constant: Fraction | None = None  # normalization constant of the split


@dataclass(frozen=True)
class FallbackEvent:
    """A transfer that had to walk the degenerate-case chain."""

    source: object
    stage: str  # column-sums | disjunctive-form | total-ignorance | theta0 | empty-set
    destination: object
    amount: Fraction


@dataclass
class Diagnostics:
    """Mutable collector handed to a rule invocation.

    ``records`` holds ordinary proportional transfers, ``fallbacks`` the
    degenerate-case ones.  ``sum_deficit`` is set when a rule knowingly
    returns an under-normalized assignment (static weighted averaging on
    dynamically emptied frames).  ``order`` reports the source order an
    order-dependent rule actually used.
    """

    records: list = field(default_factory=list)
    fallbacks: list = field(default_factory=list)
    sum_deficit: float | None = None
    order: tuple | None = None
    notes: list = field(default_factory=list)

    def record(self, source, destination, amount, constant=None):
        self.records.append(RedistributionRecord(source, destination, amount, constant))

    def fallback(self, source, stage, destination, amount):
        self.fallbacks.append(FallbackEvent(source, stage, destination, amount))

