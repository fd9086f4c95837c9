"""Exact decision and quantifier elimination over the real numbers.

The pipeline: exact rational arithmetic, dense univariate polynomials,
signed remainder sequences and Tarski queries, sign determination through
tensor systems, real-root isolation, and a continuation-passing lifting
of the whole decision procedure that turns quantified formulas into
equivalent quantifier-free ones.
"""

from .formula import (
    Add,
    And,
    Bool,
    Const,
    Equal,
    Exists,
    Forall,
    Formula,
    Implies,
    Inv,
    Le,
    Lt,
    Mul,
    Not,
    Opp,
    Or,
    Term,
    Var,
    qf_eval,
    qf_form,
)
from .intervals import Bound, Interval, format_interval, parse_interval
from .isolate import IsolatedRoot, count_roots, isolate_roots, refine
from .lift import dec, dec_strict, decF, decF_strict
from .poly import Poly
from .qelim import check_equiv, decide, q_elim
from .rational import format_rational, parse_rational
from .signdet import count_with_signs, sign_counts, solve_counts
from .sturm import tarski_query
from .syntax import (
    formula_from_json,
    formula_to_json,
    formula_to_str,
    parse_formula,
    parse_poly,
    parse_term,
    poly_to_str,
    term_to_str,
)

__all__ = [
    "Add", "And", "Bool", "Bound", "Const", "Equal", "Exists", "Forall",
    "Formula", "Implies", "Interval", "Inv", "IsolatedRoot", "Le", "Lt",
    "Mul", "Not", "Opp", "Or", "Poly", "Term", "Var",
    "check_equiv", "count_roots", "count_with_signs", "dec", "dec_strict",
    "decF", "decF_strict", "decide", "format_interval", "format_rational",
    "formula_from_json", "formula_to_json", "formula_to_str",
    "isolate_roots", "parse_formula", "parse_interval", "parse_poly",
    "parse_rational", "parse_term", "poly_to_str", "q_elim", "qf_eval",
    "qf_form", "refine", "sign_counts", "tarski_query", "term_to_str",
]
