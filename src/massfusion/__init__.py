"""Combination rules for belief functions on power sets and hyper-power sets.

Build frames and models with :class:`Frame` and :class:`Model`, wrap source
masses in :class:`Bba`, stack them in a :class:`MassMatrix`, and combine
with any of the registered rules: the conjunctive/disjunctive consensus,
Dempster, Smets, Yager, Dubois-Prade, the hybrid DSm rule, the weighted
operator family (WAO static/dynamic), minC (versions a/b), and the five
proportional conflict redistribution rules with their order-dependent
approximation.
"""

from .bba import (
    Bba,
    ConflictLedger,
    ConflictTerm,
    MassMatrix,
    column_sum,
    conflict_ledger,
    to_fraction,
    vacuous_bba,
    validate_bba,
)
from .diagnostics import Diagnostics, FallbackEvent, RedistributionRecord
from .errors import (
    BeliefFusionError,
    CapacityError,
    ExprSyntaxError,
    MassOnEmptyError,
    NegativeMassError,
    NotNormalizedError,
    TotalConflictError,
    UnknownLabelError,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .lattice import (
    CLOSED,
    FREE,
    HYBRID,
    OPEN,
    SHAFER,
    CanonicalElement,
    Frame,
    Model,
    disjunctive_form,
    parse_expr,
    shafer_as_hybrid,
)
from .registry import RULE_ORDER, RULES, RuleOptions, run_rule
from .rules_classic import (
    dempster,
    dsm_hybrid,
    dubois_prade,
    smets,
    wao,
    weighted_operator,
    yager,
)
from .rules_core import RawConjunctive, conjunctive, disjunctive
from .rules_minc import minc
from .rules_pcr import pcr1, pcr2, pcr3, pcr4, pcr5_approximate, pcr5_multi, pcr5_pair

__version__ = "0.1.0"

__all__ = [
    "Bba", "CanonicalElement", "ConflictLedger", "ConflictTerm", "Diagnostics",
    "FallbackEvent", "Frame", "KERNEL_BACKEND", "MassMatrix", "Model",
    "RawConjunctive", "RedistributionRecord", "RULES",
    "RULE_ORDER", "RuleOptions", "BeliefFusionError", "CapacityError",
    "ExprSyntaxError", "MassOnEmptyError", "NegativeMassError",
    "NotNormalizedError", "TotalConflictError", "UnknownLabelError",
    "CLOSED", "FREE", "HYBRID", "OPEN", "SHAFER",
    "column_sum", "conflict_ledger", "conjunctive",
    "dempster", "disjunctive", "disjunctive_form", "dsm_hybrid",
    "dubois_prade", "minc", "parse_expr",
    "pcr1", "pcr2", "pcr3", "pcr4", "pcr5_approximate", "pcr5_multi",
    "pcr5_pair", "run_rule", "shafer_as_hybrid", "smets", "to_fraction",
    "vacuous_bba", "validate_bba", "wao", "weighted_operator", "yager",
]
