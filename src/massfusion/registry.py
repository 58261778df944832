"""Named rule registry shared by the CLI and the comparison report."""

from __future__ import annotations

from collections import namedtuple

from .rules_classic import (
    DYNAMIC,
    STATIC,
    dempster,
    dsm_hybrid,
    dubois_prade,
    smets,
    wao,
    yager,
)
from .rules_core import _consensus, conjunctive, disjunctive
from .rules_minc import VERSION_A, VERSION_B, minc
from .rules_pcr import pcr1, pcr2, pcr3, pcr4, pcr5_approximate, pcr5_multi


class RuleOptions(namedtuple("RuleOptions", "minc_version wao_mode pcr5_variant order",
                             defaults=(VERSION_A, STATIC, "exact", None))):
    """Per-run knobs for the rules that have variants.

    ``pcr5_variant`` is ``"exact"`` or ``"approx"``; ``order`` is the
    source order for the approximate PCR5 variant, or None.
    """

    __slots__ = ()


# The rule variants, declared once: each scenario option (also the CLI flag,
# with ``-`` for ``_``) maps to its :class:`RuleOptions` field and the values
# it allows.  Absent, a field keeps its :class:`RuleOptions` default.
VARIANTS = {
    "minc_version": ("minc_version", (VERSION_A, VERSION_B)),
    "wao_mode": ("wao_mode", (STATIC, DYNAMIC)),
    "pcr5": ("pcr5_variant", ("exact", "approx")),
}


def _run_conjunctive(matrix, model, opts, diag):
    raw = conjunctive(matrix, model)
    return _consensus(model, raw.numerators(), raw.den)


def _run_pcr5(matrix, model, opts, diag):
    if opts.pcr5_variant == "approx":
        return pcr5_approximate(matrix, model, opts.order, diag)
    if opts.pcr5_variant != "exact":
        raise ValueError(f"unknown PCR5 variant {opts.pcr5_variant!r}")
    return pcr5_multi(matrix, model, diag)


RULES = {
    "conjunctive": _run_conjunctive,
    "disjunctive": lambda m, mo, o, d: disjunctive(m, mo),
    "dempster": lambda m, mo, o, d: dempster(m, mo, d),
    "smets": lambda m, mo, o, d: smets(m, mo, d),
    "yager": lambda m, mo, o, d: yager(m, mo, d),
    "dubois_prade": lambda m, mo, o, d: dubois_prade(m, mo, d),
    "dsm_hybrid": lambda m, mo, o, d: dsm_hybrid(m, mo, d),
    "wao": lambda m, mo, o, d: wao(m, o.wao_mode, mo, d),
    "minc": lambda m, mo, o, d: minc(m, o.minc_version, mo, d),
    "pcr1": lambda m, mo, o, d: pcr1(m, mo, d),
    "pcr2": lambda m, mo, o, d: pcr2(m, mo, d),
    "pcr3": lambda m, mo, o, d: pcr3(m, mo, d),
    "pcr4": lambda m, mo, o, d: pcr4(m, mo, d),
    "pcr5": _run_pcr5,
}

RULE_ORDER = tuple(RULES)


def run_rule(name, matrix, model=None, options=None, diag=None):
    """Run one registered rule on a matrix under ``model`` (the matrix's own by default).

    A single source goes through the rule too: its empty focal elements are
    conflicting products of one factor.  A ``model`` on another frame than
    the matrix's raises ``ValueError`` (:meth:`MassMatrix.under`), as it
    does for every rule function.
    """
    if name not in RULES:
        raise KeyError(f"unknown rule {name!r}")
    return RULES[name](matrix, matrix.under(model), options or RuleOptions(), diag)
