"""Quantifier elimination and the decision procedure for closed formulas.

Quantifiers are eliminated innermost first.  An existential block is
normalized once, in four steps: division is compiled away and the body
is folded, the body is put in disjunctive normal form, the equalities of
each disjunct are merged into a single equation by summing squares (over
the reals a sum of squares vanishes exactly when every summand does), and
the bound variable is abstracted out of every atom, leaving one call of
the lifted decision procedure per disjunct.  The results come back
folded, and or_ joins them, merging equal ones.  Universal quantifiers
reduce to existential ones by double negation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from . import formula as F
from .formula import (
    And,
    Equal,
    Exists,
    Forall,
    Formula,
    Implies,
    Lt,
    Mul,
    Not,
    Or,
    Term,
    dnf_conjuncts,
    elim_inv,
    free_vars,
    qf_eval,
    subst,
)
from .lift import abstrX, decF, decF_strict, fold_formula


def _exists_qf(i: int, body: Formula) -> Formula:
    """Eliminate one existential quantifier over a quantifier-free body."""
    body = fold_formula(elim_inv(body))
    if isinstance(body, F.Bool):
        return body
    disjuncts = []
    for atoms in dnf_conjuncts(body):
        eqs: list[Term] = []
        strict: list[Term] = []
        for atom in atoms:
            if isinstance(atom, Equal):
                eqs.append(atom.left)
            elif isinstance(atom, Lt):
                strict.append(atom.right)
            else:
                raise ValueError(f"unexpected atom in normal form: {atom!r}")
        sq = [abstrX(i, t) for t in strict]
        if len(eqs) == 1:
            disjuncts.append(decF(abstrX(i, eqs[0]), sq))
        elif eqs:
            merged: Term = Mul(eqs[0], eqs[0])
            for t in eqs[1:]:
                merged = F.Add(merged, Mul(t, t))
            disjuncts.append(decF(abstrX(i, merged), sq))
        else:
            disjuncts.append(decF_strict(sq))
    return F.balanced(disjuncts, F.or_, F.FALSE)


def q_elim(f: Formula) -> Formula:
    """Equivalent quantifier-free formula over the same free variables.
    Block results come back folded; connectives above them stay as written."""
    if isinstance(f, (F.Bool, Equal, Lt, F.Le)):
        return f
    if isinstance(f, And):
        return And(q_elim(f.left), q_elim(f.right))
    if isinstance(f, Or):
        return Or(q_elim(f.left), q_elim(f.right))
    if isinstance(f, Implies):
        return Implies(q_elim(f.left), q_elim(f.right))
    if isinstance(f, Not):
        return Not(q_elim(f.arg))
    if isinstance(f, Exists):
        return _exists_qf(f.index, q_elim(f.body))
    if isinstance(f, Forall):
        return F.not_(_exists_qf(f.index, Not(q_elim(f.body))))
    raise TypeError(f"not a formula: {f!r}")


def decide(f: Formula) -> bool:
    """Truth value of a closed formula."""
    fv = free_vars(f)
    if fv:
        names = ", ".join(f"x{i}" for i in sorted(fv))
        raise ValueError(f"formula is not closed: free variable(s) {names}")
    return qf_eval([], q_elim(f))


def random_rational(rng: random.Random, bound: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def check_equiv(
    f: Formula,
    g: Formula,
    samples: int = 100,
    rng: Optional[random.Random] = None,
) -> Optional[dict[int, Fraction]]:
    """Randomized equivalence check: substitute sampled rationals for the
    free variables and compare decisions.  Returns None when all samples
    agree, otherwise the first counterexample assignment."""
    if rng is None:
        rng = random.Random(0)
    fv = sorted(free_vars(f) | free_vars(g))
    for _ in range(samples):
        assignment = {i: random_rational(rng) for i in fv}
        fa, ga = f, g
        for i, v in assignment.items():
            fa = subst(fa, i, v)
            ga = subst(ga, i, v)
        if decide(fa) != decide(ga):
            return assignment
    return None
