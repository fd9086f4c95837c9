"""Deep embedding of first-order formulas over the ordered-field signature.

Terms and formulas are immutable trees.  Variables are named-style natural
indices; an environment is a list of rationals, and a variable beyond its
end evaluates to 0.  Inv follows the 0^-1 = 0 convention: it returns the
reciprocal on nonzero values and its argument (hence 0) on zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union


# -- terms ----------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Opp:
    arg: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Inv:
    arg: "Term"


Term = Union[Var, Const, Add, Opp, Mul, Inv]


# -- formulas -------------------------------------------------------------


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt:
    left: Term
    right: Term


@dataclass(frozen=True)
class Le:
    left: Term
    right: Term


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class Exists:
    index: int
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    index: int
    body: "Formula"


Formula = Union[Bool, Equal, Lt, Le, And, Or, Implies, Not, Exists, Forall]

TRUE = Bool(True)
FALSE = Bool(False)
ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def sub(a: Term, b: Term) -> Term:
    return Add(a, Opp(b))


def balanced(parts: Sequence, op: Callable, empty=None):
    """Combine parts with op in a balanced tree, so that depth stays
    logarithmic; empty when there are no parts."""
    if not parts:
        return empty
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return op(balanced(parts[:mid], op), balanced(parts[mid:], op))


def and_all(fs: Sequence[Formula]) -> Formula:
    """Balanced conjunction of a formula list (True when empty)."""
    return balanced(fs, And, TRUE)


def or_all(fs: Sequence[Formula]) -> Formula:
    """Balanced disjunction of a formula list (False when empty)."""
    return balanced(fs, Or, FALSE)


# -- folding constructors -------------------------------------------------
#
# The connective rules of constant folding, written once.  A junction's
# unit (TRUE for and_, FALSE for or_) drops out, the other Bool absorbs and
# equal arguments merge.  Built from folded arguments, a result is folded.


def _junction(make, unit: Bool, left: Formula, right: Formula) -> Formula:
    if left == unit:
        return right
    if right == unit or left == right:
        return left
    if isinstance(left, Bool) or isinstance(right, Bool):
        return Bool(not unit.value)
    return make(left, right)


def and_(left: Formula, right: Formula) -> Formula:
    return _junction(And, TRUE, left, right)


def or_(left: Formula, right: Formula) -> Formula:
    return _junction(Or, FALSE, left, right)


def not_(arg: Formula) -> Formula:
    if isinstance(arg, Bool):
        return Bool(not arg.value)
    if isinstance(arg, Not):
        return arg.arg
    return Not(arg)


def implies_(left: Formula, right: Formula) -> Formula:
    if left == FALSE or right == TRUE:
        return TRUE
    if left == TRUE:
        return right
    if right == FALSE:
        return not_(left)
    return Implies(left, right)


# -- evaluation -----------------------------------------------------------


def eval_term(env: Sequence[Fraction], t: Term) -> Fraction:
    """Structural interpretation under the environment."""
    if isinstance(t, Var):
        return env[t.index] if t.index < len(env) else Fraction(0)
    if isinstance(t, Const):
        return t.value
    if isinstance(t, Add):
        return eval_term(env, t.left) + eval_term(env, t.right)
    if isinstance(t, Opp):
        return -eval_term(env, t.arg)
    if isinstance(t, Mul):
        return eval_term(env, t.left) * eval_term(env, t.right)
    if isinstance(t, Inv):
        v = eval_term(env, t.arg)
        return 1 / v if v != 0 else v
    raise TypeError(f"not a term: {t!r}")


def qf_form(f: Formula) -> bool:
    """True iff no quantifier constructor occurs."""
    if isinstance(f, (Bool, Equal, Lt, Le)):
        return True
    if isinstance(f, (And, Or, Implies)):
        return qf_form(f.left) and qf_form(f.right)
    if isinstance(f, Not):
        return qf_form(f.arg)
    if isinstance(f, (Exists, Forall)):
        return False
    raise TypeError(f"not a formula: {f!r}")


def qf_eval(env: Sequence[Fraction], f: Formula) -> bool:
    """Boolean truth of a quantifier-free formula under the environment.

    Subformulas sharing the same object are evaluated once, so formulas
    built with heavy structure sharing evaluate in time linear in the
    number of distinct nodes.
    """
    memo: dict[int, bool] = {}
    tmemo: dict[int, Fraction] = {}

    def ev_term(t: Term) -> Fraction:
        key = id(t)
        if key not in tmemo:
            tmemo[key] = eval_term(env, t)
        return tmemo[key]

    def go(g: Formula) -> bool:
        key = id(g)
        if key in memo:
            return memo[key]
        if isinstance(g, Bool):
            value = g.value
        elif isinstance(g, Equal):
            value = ev_term(g.left) == ev_term(g.right)
        elif isinstance(g, Lt):
            value = ev_term(g.left) < ev_term(g.right)
        elif isinstance(g, Le):
            value = ev_term(g.left) <= ev_term(g.right)
        elif isinstance(g, And):
            value = go(g.left) and go(g.right)
        elif isinstance(g, Or):
            value = go(g.left) or go(g.right)
        elif isinstance(g, Implies):
            value = (not go(g.left)) or go(g.right)
        elif isinstance(g, Not):
            value = not go(g.arg)
        elif isinstance(g, (Exists, Forall)):
            raise ValueError("qf_eval on a quantified formula")
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[key] = value
        return value

    return go(f)


# -- variables and substitution ------------------------------------------


def term_vars(t: Term, out: set[int]) -> None:
    if isinstance(t, Var):
        out.add(t.index)
    elif isinstance(t, (Add, Mul)):
        term_vars(t.left, out)
        term_vars(t.right, out)
    elif isinstance(t, (Opp, Inv)):
        term_vars(t.arg, out)


def free_vars(f: Formula) -> set[int]:
    """Indices occurring free, respecting named-style binders."""
    if isinstance(f, Bool):
        return set()
    if isinstance(f, (Equal, Lt, Le)):
        out: set[int] = set()
        term_vars(f.left, out)
        term_vars(f.right, out)
        return out
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.arg)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.index}
    raise TypeError(f"not a formula: {f!r}")


def max_index(f: Formula) -> int:
    """Largest variable index occurring anywhere (bound or free); -1 if none."""
    if isinstance(f, Bool):
        return -1
    if isinstance(f, (Equal, Lt, Le)):
        out: set[int] = set()
        term_vars(f.left, out)
        term_vars(f.right, out)
        return max(out, default=-1)
    if isinstance(f, (And, Or, Implies)):
        return max(max_index(f.left), max_index(f.right))
    if isinstance(f, Not):
        return max_index(f.arg)
    if isinstance(f, (Exists, Forall)):
        return max(f.index, max_index(f.body))
    raise TypeError(f"not a formula: {f!r}")


def subst_term(t: Term, i: int, v: Fraction) -> Term:
    if isinstance(t, Var):
        return Const(v) if t.index == i else t
    if isinstance(t, Const):
        return t
    if isinstance(t, Add):
        return Add(subst_term(t.left, i, v), subst_term(t.right, i, v))
    if isinstance(t, Opp):
        return Opp(subst_term(t.arg, i, v))
    if isinstance(t, Mul):
        return Mul(subst_term(t.left, i, v), subst_term(t.right, i, v))
    if isinstance(t, Inv):
        return Inv(subst_term(t.arg, i, v))
    raise TypeError(f"not a term: {t!r}")


def subst(f: Formula, i: int, v: Fraction) -> Formula:
    """Replace free occurrences of Var(i) by Const(v), capture-avoiding."""
    if isinstance(f, Bool):
        return f
    if isinstance(f, Equal):
        return Equal(subst_term(f.left, i, v), subst_term(f.right, i, v))
    if isinstance(f, Lt):
        return Lt(subst_term(f.left, i, v), subst_term(f.right, i, v))
    if isinstance(f, Le):
        return Le(subst_term(f.left, i, v), subst_term(f.right, i, v))
    if isinstance(f, And):
        return And(subst(f.left, i, v), subst(f.right, i, v))
    if isinstance(f, Or):
        return Or(subst(f.left, i, v), subst(f.right, i, v))
    if isinstance(f, Implies):
        return Implies(subst(f.left, i, v), subst(f.right, i, v))
    if isinstance(f, Not):
        return Not(subst(f.arg, i, v))
    if isinstance(f, Exists):
        return f if f.index == i else Exists(f.index, subst(f.body, i, v))
    if isinstance(f, Forall):
        return f if f.index == i else Forall(f.index, subst(f.body, i, v))
    raise TypeError(f"not a formula: {f!r}")


# -- Inv elimination ------------------------------------------------------


def _term_cases(t: Term) -> list[tuple[list[Formula], Term, Term]]:
    """Quotient normal forms of a term: triples (conditions, num, den) such
    that under the conditions t evaluates to num/den with den nonzero.

    The case split on each Inv argument realizes the 0^-1 = 0 convention.
    """
    if isinstance(t, (Var, Const)):
        return [([], t, ONE)]
    if isinstance(t, Opp):
        return [(c, Opp(n), d) for c, n, d in _term_cases(t.arg)]
    if isinstance(t, Add):
        out = []
        for c1, n1, d1 in _term_cases(t.left):
            for c2, n2, d2 in _term_cases(t.right):
                out.append((c1 + c2, Add(Mul(n1, d2), Mul(n2, d1)), Mul(d1, d2)))
        return out
    if isinstance(t, Mul):
        out = []
        for c1, n1, d1 in _term_cases(t.left):
            for c2, n2, d2 in _term_cases(t.right):
                out.append((c1 + c2, Mul(n1, n2), Mul(d1, d2)))
        return out
    if isinstance(t, Inv):
        out = []
        for c, n, d in _term_cases(t.arg):
            out.append((c + [Not(Equal(n, ZERO))], d, n))
            out.append((c + [Equal(n, ZERO)], ZERO, ONE))
        return out
    raise TypeError(f"not a term: {t!r}")


def _atom_cases(left: Term, right: Term, make) -> Formula:
    """Clear denominators in a comparison atom, case by case.

    ``make(numerator, denprod)`` builds the cleared comparison from the
    numerator of left - right and the (nonzero) product of denominators.
    """
    disjuncts = []
    for c1, n1, d1 in _term_cases(left):
        for c2, n2, d2 in _term_cases(right):
            num = sub(Mul(n1, d2), Mul(n2, d1))
            cleared = make(num, Mul(d1, d2))
            disjuncts.append(and_all(c1 + c2 + [cleared]))
    return or_all(disjuncts)


def elim_inv(f: Formula) -> Formula:
    """Remove every Inv constructor, preserving semantics for every
    environment under the 0^-1 = 0 convention."""
    if isinstance(f, Bool):
        return f
    if isinstance(f, Equal):
        if not _has_inv(f.left) and not _has_inv(f.right):
            return f
        return _atom_cases(f.left, f.right, lambda num, den: Equal(num, ZERO))
    if isinstance(f, Lt):
        if not _has_inv(f.left) and not _has_inv(f.right):
            return f
        # left - right = num/den, so left < right iff num * den < 0.
        return _atom_cases(f.left, f.right, lambda num, den: Lt(Mul(num, den), ZERO))
    if isinstance(f, Le):
        if not _has_inv(f.left) and not _has_inv(f.right):
            return f
        return _atom_cases(f.left, f.right, lambda num, den: Le(Mul(num, den), ZERO))
    if isinstance(f, And):
        return And(elim_inv(f.left), elim_inv(f.right))
    if isinstance(f, Or):
        return Or(elim_inv(f.left), elim_inv(f.right))
    if isinstance(f, Implies):
        return Implies(elim_inv(f.left), elim_inv(f.right))
    if isinstance(f, Not):
        return Not(elim_inv(f.arg))
    if isinstance(f, Exists):
        return Exists(f.index, elim_inv(f.body))
    if isinstance(f, Forall):
        return Forall(f.index, elim_inv(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _has_inv(t: Term) -> bool:
    if isinstance(t, Inv):
        return True
    if isinstance(t, (Add, Mul)):
        return _has_inv(t.left) or _has_inv(t.right)
    if isinstance(t, Opp):
        return _has_inv(t.arg)
    return False


def has_inv(f: Formula) -> bool:
    """True iff some atom of the formula contains an Inv constructor."""
    if isinstance(f, Bool):
        return False
    if isinstance(f, (Equal, Lt, Le)):
        return _has_inv(f.left) or _has_inv(f.right)
    if isinstance(f, (And, Or, Implies)):
        return has_inv(f.left) or has_inv(f.right)
    if isinstance(f, Not):
        return has_inv(f.arg)
    if isinstance(f, (Exists, Forall)):
        return has_inv(f.body)
    raise TypeError(f"not a formula: {f!r}")


# -- disjunctive normal form ---------------------------------------------


def _atoms_pos(f: Formula) -> list[list[Formula]]:
    """DNF of f as a list of conjuncts of normalized atoms."""
    if isinstance(f, Bool):
        return [[]] if f.value else []
    if isinstance(f, Equal):
        return [[Equal(sub(f.left, f.right), ZERO)]]
    if isinstance(f, Lt):
        return [[Lt(ZERO, sub(f.right, f.left))]]
    if isinstance(f, Le):
        # t1 <= t2 iff t2 - t1 > 0 or t1 - t2 = 0
        return [[Lt(ZERO, sub(f.right, f.left))], [Equal(sub(f.left, f.right), ZERO)]]
    if isinstance(f, And):
        return [c1 + c2 for c1 in _atoms_pos(f.left) for c2 in _atoms_pos(f.right)]
    if isinstance(f, Or):
        return _atoms_pos(f.left) + _atoms_pos(f.right)
    if isinstance(f, Implies):
        return _atoms_neg(f.left) + _atoms_pos(f.right)
    if isinstance(f, Not):
        return _atoms_neg(f.arg)
    raise ValueError("to_dnf requires a quantifier-free formula")


def _atoms_neg(f: Formula) -> list[list[Formula]]:
    """DNF of the negation of f."""
    if isinstance(f, Bool):
        return [] if f.value else [[]]
    if isinstance(f, Equal):
        t = sub(f.left, f.right)
        return [[Lt(ZERO, t)], [Lt(ZERO, Opp(t))]]
    if isinstance(f, Lt):
        t = sub(f.right, f.left)
        return [[Equal(t, ZERO)], [Lt(ZERO, Opp(t))]]
    if isinstance(f, Le):
        return [[Lt(ZERO, sub(f.left, f.right))]]
    if isinstance(f, And):
        return _atoms_neg(f.left) + _atoms_neg(f.right)
    if isinstance(f, Or):
        return [c1 + c2 for c1 in _atoms_neg(f.left) for c2 in _atoms_neg(f.right)]
    if isinstance(f, Implies):
        return [c1 + c2 for c1 in _atoms_pos(f.left) for c2 in _atoms_neg(f.right)]
    if isinstance(f, Not):
        return _atoms_pos(f.arg)
    raise ValueError("to_dnf requires a quantifier-free formula")


def dnf_conjuncts(f: Formula) -> list[list[Formula]]:
    """DNF as a list of conjuncts, each a list of atoms of shape
    Equal(T, 0) or Lt(0, T).  Requires a quantifier-free, Inv-free input."""
    if has_inv(f):
        raise ValueError("to_dnf requires an Inv-free formula (run elim_inv first)")
    return _atoms_pos(f)


def to_dnf(f: Formula) -> Formula:
    """Disjunctive normal form with atoms of shape (T = 0) or (0 < T)."""
    return or_all([and_all(c) for c in dnf_conjuncts(f)])
