"""Formal polynomials with term coefficients and the lifted decision
procedure for one existential block.

A formal polynomial (PolyF) is a sequence of terms, lowest degree first;
its coefficients cannot be normalized without knowing the parameter
values.  Ring operations lift directly (the evaluation diagram commutes
term by term).  Everything that branches on whether a coefficient is zero
-- leading coefficients, degrees, remainder sequences -- is written in
continuation passing style: the continuation receives the resolved value
and returns a formula, and each data-dependent branch becomes an if_cps
case split whose condition is the discriminating sign condition.

Two ingredients keep the output from exploding:

* every coefficient term is kept in polynomial normal form, so ground
  conditions evaluate outright instead of branching, and

* the case splits thread a context of sign facts already assumed on the
  current branch, so a condition whose sign is forced by earlier splits
  is folded instead of duplicated.

Pseudo-division multiplies through by an even power of the formal leading
coefficient, so that whenever the evaluated leading coefficient is
nonzero the multiplier is strictly positive and sign-change counts are
untouched.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import formula as F
from .formula import (
    And,
    Bool,
    Equal,
    Formula,
    Lt,
    Not,
    Or,
    Term,
    eval_term,
    sub,
)
from .isolate import isolate_roots, sign_at_root
from .poly import Poly
from .rational import sgr
from .signdet import exponent_vectors, first_count_weights
from .sturm import NEG_INF, POS_INF, sign_at_inf

PolyF = tuple[Term, ...]
TermCont = Callable[[Term], Formula]
PolyCont = Callable[[PolyF], Formula]
IntCont = Callable[[int], Formula]

ZERO = F.ZERO
ONE = F.ONE

ALL_SIGNS = frozenset((-1, 0, 1))

# Continuation passing style nests one Python frame per case split, and
# remainder sequences of parametric polynomials can split hundreds of
# levels deep.
if sys.getrecursionlimit() < 100000:
    sys.setrecursionlimit(100000)

# A context maps canonically scaled terms to the signs they may still
# take on the current branch.
Ctx = dict[Term, frozenset]


# -- term normal form -----------------------------------------------------

_Mono = tuple[tuple[int, int], ...]


class _NotPolynomial(Exception):
    pass


_norm_cache: dict[Term, Term] = {}
_canon_cache: dict[Term, tuple[Term, int]] = {}
_poly_map_cache: dict[Term, dict] = {}


def _poly_map(t: Term) -> dict[_Mono, Fraction]:
    """Monomial-to-coefficient map of a term; cached, so callers must not
    mutate the result."""
    cached = _poly_map_cache.get(t)
    if cached is None:
        cached = _poly_map_compute(t)
        _poly_map_cache[t] = cached
    return cached


def _poly_map_compute(t: Term) -> dict[_Mono, Fraction]:
    if isinstance(t, F.Var):
        return {((t.index, 1),): Fraction(1)}
    if isinstance(t, F.Const):
        return {(): t.value} if t.value else {}
    if isinstance(t, F.Opp):
        return {m: -c for m, c in _poly_map(t.arg).items()}
    if isinstance(t, F.Add):
        out = dict(_poly_map(t.left))
        for m, c in _poly_map(t.right).items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return out
    if isinstance(t, F.Mul):
        left = _poly_map(t.left)
        right = _poly_map(t.right)
        out: dict[_Mono, Fraction] = {}
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                exps: dict[int, int] = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                mono = tuple(sorted(exps.items()))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return out
    if isinstance(t, F.Inv):
        inner = _poly_map(t.arg)
        if not inner:
            return {}
        if list(inner.keys()) == [()]:
            return {(): 1 / inner[()]}
        raise _NotPolynomial
    raise TypeError(f"not a term: {t!r}")


def _mono_key(item: tuple[_Mono, Fraction]) -> tuple:
    mono, _ = item
    return (sum(e for _, e in mono), mono)


def _balanced(parts: list[Term], op) -> Term:
    """Combine parts with a balanced tree so term depth stays logarithmic
    (structural equality and hashing recurse over depth)."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return op(_balanced(parts[:mid], op), _balanced(parts[mid:], op))


def _mono_term(mono: _Mono, coeff: Fraction) -> Term:
    factors: list[Term] = []
    for v, e in mono:
        factors.extend([F.Var(v)] * e)
    if not factors:
        return F.Const(coeff)
    body = _balanced(factors, F.Mul)
    if coeff == 1:
        return body
    return F.Mul(F.Const(coeff), body)


def _rebuild(pm: dict[_Mono, Fraction]) -> Term:
    parts = [_mono_term(m, c) for m, c in sorted(pm.items(), key=_mono_key)]
    if not parts:
        return ZERO
    return _balanced(parts, F.Add)


def norm_term(t: Term) -> Term:
    """Canonical polynomial normal form of an Inv-free term; terms whose
    Inv subterms are non-constant are returned unchanged."""
    cached = _norm_cache.get(t)
    if cached is not None:
        return cached
    try:
        result = _rebuild(_poly_map(t))
    except _NotPolynomial:
        result = t
    _norm_cache[t] = result
    return result


def _canon(t: Term) -> tuple[Term, int]:
    """Scale a normalized term by a positive rational so that its least
    monomial has coefficient +1; returns the canonical term and the flip
    sign (sign(t) = flip * sign(canonical))."""
    cached = _canon_cache.get(t)
    if cached is not None:
        return cached
    pm = _poly_map(t)
    if not pm:
        result = (ZERO, 1)
    else:
        _, coeff = min(pm.items(), key=_mono_key)
        s = sgr(coeff)
        result = (_rebuild({m: c / coeff for m, c in pm.items()}), s)
    _canon_cache[t] = result
    return result


def _try_canon(t: Term) -> Optional[tuple[Term, int]]:
    """_canon, or None when the term is not polynomial (non-constant Inv)."""
    try:
        return _canon(t)
    except _NotPolynomial:
        return None


def _ground(t: Term) -> Optional[Fraction]:
    out: set[int] = set()
    F.term_vars(t, out)
    if out:
        return None
    return eval_term([], t)


# -- formula constant folding --------------------------------------------


def fold_formula(f: Formula) -> Formula:
    """Bottom-up semantics-preserving simplification: evaluate ground
    atoms, normalize atom terms, and shortcut boolean connectives."""
    if isinstance(f, Bool):
        return f
    if isinstance(f, Equal):
        d = norm_term(sub(f.left, f.right))
        g = _ground(d)
        if g is not None:
            return Bool(g == 0)
        pair = _try_canon(d)
        return Equal(pair[0] if pair else d, ZERO)
    if isinstance(f, Lt):
        d = norm_term(sub(f.right, f.left))
        g = _ground(d)
        if g is not None:
            return Bool(g > 0)
        pair = _try_canon(d)
        if pair is None:
            return Lt(ZERO, d)
        canon, flip = pair
        return Lt(ZERO, canon if flip == 1 else norm_term(F.Opp(canon)))
    if isinstance(f, F.Le):
        d = norm_term(sub(f.right, f.left))
        g = _ground(d)
        if g is not None:
            return Bool(g >= 0)
        pair = _try_canon(d)
        if pair is None:
            return F.Le(ZERO, d)
        canon, flip = pair
        return F.Le(ZERO, canon if flip == 1 else norm_term(F.Opp(canon)))
    if isinstance(f, And):
        left = fold_formula(f.left)
        right = fold_formula(f.right)
        if left == F.FALSE or right == F.FALSE:
            return F.FALSE
        if left == F.TRUE:
            return right
        if right == F.TRUE or left == right:
            return left
        return And(left, right)
    if isinstance(f, Or):
        left = fold_formula(f.left)
        right = fold_formula(f.right)
        if left == F.TRUE or right == F.TRUE:
            return F.TRUE
        if left == F.FALSE:
            return right
        if right == F.FALSE or left == right:
            return left
        return Or(left, right)
    if isinstance(f, F.Implies):
        left = fold_formula(f.left)
        right = fold_formula(f.right)
        if left == F.FALSE or right == F.TRUE:
            return F.TRUE
        if left == F.TRUE:
            return right
        if right == F.FALSE:
            return fold_formula(Not(left))
        return F.Implies(left, right)
    if isinstance(f, Not):
        inner = fold_formula(f.arg)
        if isinstance(inner, Bool):
            return Bool(not inner.value)
        if isinstance(inner, Not):
            return inner.arg
        return Not(inner)
    if isinstance(f, F.Exists):
        return F.Exists(f.index, fold_formula(f.body))
    if isinstance(f, F.Forall):
        return F.Forall(f.index, fold_formula(f.body))
    raise TypeError(f"not a formula: {f!r}")


# -- formal polynomial ring operations (direct counterparts) --------------


def eval_poly(env: Sequence[Fraction], p: PolyF) -> Poly:
    """Evaluate every coefficient, then normalize into a Poly."""
    return Poly([eval_term(env, c) for c in p])


def addF(p: PolyF, q: PolyF) -> PolyF:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else ZERO
        b = q[i] if i < len(q) else ZERO
        out.append(norm_term(F.Add(a, b)))
    return tuple(out)


def oppF(p: PolyF) -> PolyF:
    return tuple(norm_term(F.Opp(c)) for c in p)


def mulF(p: PolyF, q: PolyF) -> PolyF:
    if not p or not q:
        return ()
    out: list[Term] = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = F.Add(out[i + j], F.Mul(a, b))
    return tuple(norm_term(c) for c in out)


def scaleF(t: Term, p: PolyF) -> PolyF:
    return tuple(norm_term(F.Mul(t, c)) for c in p)


def derivF(p: PolyF) -> PolyF:
    return tuple(norm_term(F.Mul(F.Const(Fraction(i)), c)) for i, c in enumerate(p) if i > 0)


def powF(p: PolyF, n: int) -> PolyF:
    out: PolyF = (ONE,)
    for _ in range(n):
        out = mulF(out, p)
    return out


def abstrX(i: int, t: Term) -> PolyF:
    """Collect a term into a formal polynomial of the selected variable."""
    if isinstance(t, F.Var):
        if t.index == i:
            return (ZERO, ONE)
        return (t,)
    if isinstance(t, F.Const):
        return (t,)
    if isinstance(t, F.Add):
        return addF(abstrX(i, t.left), abstrX(i, t.right))
    if isinstance(t, F.Opp):
        return oppF(abstrX(i, t.arg))
    if isinstance(t, F.Mul):
        return mulF(abstrX(i, t.left), abstrX(i, t.right))
    if isinstance(t, F.Inv):
        raise ValueError("abstrX requires an Inv-free term (run elim_inv first)")
    raise TypeError(f"not a term: {t!r}")


def polyf_has_inv(p: PolyF) -> bool:
    return any(F._has_inv(c) for c in p)


# -- sign contexts ---------------------------------------------------------


def _mono_of(t: Term) -> Optional[tuple[Fraction, _Mono]]:
    try:
        pm = _poly_map(t)
    except _NotPolynomial:
        return None
    if len(pm) != 1:
        return None
    mono, coeff = next(iter(pm.items()))
    return coeff, mono


def _possible_signs(ctx: Ctx, t: Term) -> frozenset:
    """Signs the (normalized) term may still take under the context."""
    g = _ground(t)
    if g is not None:
        return frozenset((sgr(g),))
    canon, flip = _canon(t)
    poss = ctx.get(canon, ALL_SIGNS)
    mono = _mono_of(canon)
    if mono is not None:
        coeff, factors = mono
        combined = {sgr(coeff)}
        for v, e in factors:
            var_poss = ctx.get(F.Var(v), ALL_SIGNS)
            step = set()
            for s in var_poss:
                fs = 0 if s == 0 else (1 if e % 2 == 0 else s)
                step.update(fs * c for c in combined)
            combined = step
        poss = poss & frozenset(combined)
    if flip == -1:
        poss = frozenset(-s for s in poss)
    return poss


def _learn(ctx: Ctx, t: Term, signs: frozenset) -> Ctx:
    """Extend the context with the fact sign(t) in signs."""
    canon, flip = _canon(t)
    if flip == -1:
        signs = frozenset(-s for s in signs)
    out = dict(ctx)
    out[canon] = out.get(canon, ALL_SIGNS) & signs
    known = out[canon]
    mono = _mono_of(canon)
    if mono is not None:
        _, factors = mono
        if 0 not in known:
            for v, _ in factors:
                key = F.Var(v)
                out[key] = out.get(key, ALL_SIGNS) & frozenset((-1, 1))
        if len(factors) == 1:
            v, e = factors[0]
            key = F.Var(v)
            if known == frozenset((0,)):
                out[key] = out.get(key, ALL_SIGNS) & frozenset((0,))
            elif len(known) == 1 and e % 2 == 1:
                out[key] = out.get(key, ALL_SIGNS) & known
    return out


def _atom_eq(t: Term) -> Formula:
    return Equal(_canon(t)[0], ZERO)


def _atom_pos(t: Term) -> Formula:
    canon, flip = _canon(t)
    return Lt(ZERO, canon if flip == 1 else norm_term(F.Opp(canon)))


def _mk_ite(cond: Formula, th: Formula, el: Formula) -> Formula:
    if th == el:
        return th
    if th == F.TRUE and el == F.FALSE:
        return cond
    if th == F.FALSE and el == F.TRUE:
        return Not(cond)
    if th == F.FALSE:
        return And(Not(cond), el)
    if th == F.TRUE:
        return Or(cond, el)
    if el == F.FALSE:
        return And(cond, th)
    if el == F.TRUE:
        return Or(Not(cond), th)
    return Or(And(cond, th), And(Not(cond), el))


def _case_zero(ctx: Ctx, t: Term, k: Callable[[Ctx, bool], Formula]) -> Formula:
    """Split on whether the term is zero, unless the context decides it."""
    t = norm_term(t)
    poss = _possible_signs(ctx, t)
    if 0 not in poss:
        return k(ctx, False)
    if poss == frozenset((0,)):
        return k(ctx, True)
    th = k(_learn(ctx, t, frozenset((0,))), True)
    el = k(_learn(ctx, t, frozenset((-1, 1))), False)
    return _mk_ite(_atom_eq(t), th, el)


def _case_sign(ctx: Ctx, t: Term, k: Callable[[Ctx, int], Formula]) -> Formula:
    """Split on the sign of the term, folding context-decided cases."""
    t = norm_term(t)

    def nonzero(ctx2: Ctx) -> Formula:
        poss = _possible_signs(ctx2, t)
        if poss == frozenset((1,)):
            return k(ctx2, 1)
        if poss == frozenset((-1,)):
            return k(ctx2, -1)
        th = k(_learn(ctx2, t, frozenset((1,))), 1)
        el = k(_learn(ctx2, t, frozenset((-1,))), -1)
        return _mk_ite(_atom_pos(t), th, el)

    return _case_zero(ctx, t, lambda c, z: k(c, 0) if z else nonzero(c))


# -- continuation passing style building blocks ---------------------------


def if_cps(cond: Formula, th: Formula, el: Formula) -> Formula:
    """Case split: Or(And(cond, th), And(Not(cond), el)), with constant
    folding so that decided conditions select their branch outright."""
    c = fold_formula(cond)
    if c == F.TRUE:
        return th
    if c == F.FALSE:
        return el
    return _mk_ite(c, th, el)


def _tail_zero(ctx: Ctx, cs: Sequence[Term], k: Callable[[Ctx, bool], Formula]) -> Formula:
    """Split on whether every coefficient in cs is zero."""
    if not cs:
        return k(ctx, True)
    return _case_zero(
        ctx,
        cs[0],
        lambda c, z: _tail_zero(c, cs[1:], k) if z else k(c, False),
    )


def _lcoef(ctx: Ctx, p: PolyF, k: Callable[[Ctx, Term], Formula]) -> Formula:
    if not p:
        return k(ctx, ZERO)
    head, tail = p[0], tuple(p[1:])
    return _tail_zero(ctx, tail, lambda c, z: k(c, head) if z else _lcoef(c, tail, k))


def lcoef_cps(p: PolyF, k: TermCont) -> Formula:
    """Continuation receives the leading coefficient of the evaluated
    polynomial (0 for the zero polynomial)."""
    return _lcoef({}, tuple(norm_term(c) for c in p), lambda _, t: k(t))


def _whnf(ctx: Ctx, p: PolyF, k: Callable[[Ctx, PolyF], Formula]) -> Formula:
    """Resolve the true degree: the continuation receives a prefix whose
    last coefficient is nonzero under the branch context (or ())."""
    q = tuple(norm_term(c) for c in p)
    if not q:
        return k(ctx, ())
    return _case_zero(
        ctx,
        q[-1],
        lambda c, z: _whnf(c, q[:-1], k) if z else k(c, q),
    )


def size_cps(p: PolyF, k: IntCont) -> Formula:
    """Continuation receives the size (degree + 1; 0 for zero) of the
    evaluated polynomial."""
    return _whnf({}, p, lambda _, q: k(len(q)))


_prem_cache: dict[tuple[PolyF, PolyF], PolyF] = {}


def _pseudo_rem_even(p: PolyF, q: PolyF) -> PolyF:
    """Pseudo-remainder of p by q with an even-power multiplier; cached,
    since remainder chains are rebuilt along every sign-split branch.

    Both arguments must carry their true leading coefficient (whnf).  The
    result has structural degree < deg q but is not itself whnf.
    """
    cached = _prem_cache.get((p, q))
    if cached is not None:
        return cached
    dp, dq = len(p) - 1, len(q) - 1
    if dp < dq:
        return p
    lc = q[-1]
    r = list(p)
    steps = dp - dq + 1
    for kdeg in range(dp, dq - 1, -1):
        top = r[-1]
        new_r: list[Term] = []
        for j in range(kdeg):
            term: Term = F.Mul(lc, r[j])
            shift = j - (kdeg - dq)
            if 0 <= shift < dq:
                term = sub(term, F.Mul(top, q[shift]))
            new_r.append(term)
        r = [norm_term(c) for c in new_r]
    if steps % 2 == 1:
        r = [norm_term(F.Mul(lc, c)) for c in r]
    result = tuple(r)
    _prem_cache[(p, q)] = result
    return result


def pseudo_divmod_cps(p: PolyF, q: PolyF, k: Callable[[Term, PolyF, PolyF], Formula]) -> Formula:
    """Continuation receives (scalp, quot, rem) of the even-multiplier
    pseudo-division of the evaluated polynomials.  In the branch where q
    evaluates to zero the continuation receives (1, 0, p)."""
    return _whnf(
        {},
        p,
        lambda c1, ph: _whnf(
            c1,
            q,
            lambda c2, qh: k(ONE, (), ph) if not qh else _pseudo_divmod_terms(ph, qh, k),
        ),
    )


def _pseudo_divmod_terms(p: PolyF, q: PolyF, k: Callable[[Term, PolyF, PolyF], Formula]) -> Formula:
    dp, dq = len(p) - 1, len(q) - 1
    if dp < dq:
        return k(ONE, (), p)
    lc = q[-1]
    r = list(p)
    quot: list[Term] = [ZERO] * (dp - dq + 1)
    steps = dp - dq + 1
    for kdeg in range(dp, dq - 1, -1):
        top = r[-1]
        quot = [norm_term(F.Mul(lc, c)) for c in quot]
        quot[kdeg - dq] = norm_term(F.Add(quot[kdeg - dq], top))
        new_r: list[Term] = []
        for j in range(kdeg):
            term: Term = F.Mul(lc, r[j])
            shift = j - (kdeg - dq)
            if 0 <= shift < dq:
                term = sub(term, F.Mul(top, q[shift]))
            new_r.append(term)
        r = [norm_term(c) for c in new_r]
    power = steps
    if steps % 2 == 1:
        r = [norm_term(F.Mul(lc, c)) for c in r]
        quot = [norm_term(F.Mul(lc, c)) for c in quot]
        power += 1
    scalp: Term = ONE
    for _ in range(power):
        scalp = F.Mul(scalp, lc)
    return k(norm_term(scalp), tuple(quot), tuple(r))


def _sremp(ctx: Ctx, p: PolyF, q: PolyF, k: Callable[[Ctx, list[PolyF]], Formula]) -> Formula:
    return _whnf(ctx, p, lambda c, ph: k(c, []) if not ph else _sremp_from(c, ph, q, k))


def _sremp_from(ctx: Ctx, ph: PolyF, q: PolyF, k: Callable[[Ctx, list[PolyF]], Formula]) -> Formula:
    return _whnf(ctx, q, lambda c, qh: k(c, [ph]) if not qh else _sremp_loop(c, [ph, qh], k))


def _primitiveF(p: PolyF) -> PolyF:
    """Divide out the positive rational content of the coefficient terms;
    a positive rescaling, so sign-change counts are unaffected."""
    nums: list[int] = []
    dens: list[int] = []
    try:
        for c in p:
            for coeff in _poly_map(c).values():
                nums.append(coeff.numerator)
                dens.append(coeff.denominator)
    except _NotPolynomial:
        return p
    if not nums:
        return p
    g = Fraction(math.gcd(*nums), math.lcm(*dens))
    if g in (0, 1):
        return p
    scale = F.Const(1 / g)
    return tuple(norm_term(F.Mul(scale, c)) for c in p)


def _sremp_loop(ctx: Ctx, seq: list[PolyF], k: Callable[[Ctx, list[PolyF]], Formula]) -> Formula:
    neg = _primitiveF(oppF(_pseudo_rem_even(seq[-2], seq[-1])))
    return _whnf(ctx, neg, lambda c, rh: k(c, seq) if not rh else _sremp_loop(c, seq + [rh], k))


def sremp_cps(p: PolyF, q: PolyF, k: Callable[[list[PolyF]], Formula]) -> Formula:
    """Continuation receives the signed remainder sequence of the
    evaluated polynomials, each element a positive multiple of its exact
    counterpart (sign-change counts are therefore identical)."""
    return _sremp({}, p, q, lambda _, seq: k(seq))


def _lead_signs(ctx: Ctx, seq: Sequence[PolyF], k: Callable[[Ctx, list[int]], Formula]) -> Formula:
    """Signs of the (guaranteed nonzero) leading coefficients of a
    whnf-resolved sequence."""
    if not seq:
        return k(ctx, [])
    return _case_sign(
        ctx,
        seq[0][-1],
        lambda c, s: _lead_signs(c, seq[1:], lambda c2, rest: k(c2, [s] + rest)),
    )


def _var_from_signs(signs: Sequence[int], sizes: Sequence[int], direction: int) -> int:
    at_inf = []
    for s, size in zip(signs, sizes):
        if direction == NEG_INF and size % 2 == 0:
            s = -s
        if s != 0:
            at_inf.append(s)
    return sum(1 for a, b in zip(at_inf, at_inf[1:]) if a != b)


def var_at_inf_cps(sp: Sequence[PolyF], direction: int, k: IntCont) -> Formula:
    """Continuation receives the sign-change count of the evaluated
    sequence at the chosen infinity (zero evaluations skipped)."""
    if direction not in (NEG_INF, POS_INF):
        raise ValueError("direction must be NEG_INF or POS_INF")

    def resolve(ctx: Ctx, rest: Sequence[PolyF], acc: list[PolyF]) -> Formula:
        if not rest:
            return _lead_signs(
                ctx,
                acc,
                lambda _, signs: k(_var_from_signs(signs, [len(e) for e in acc], direction)),
            )
        return _whnf(ctx, rest[0], lambda c, h: resolve(c, rest[1:], acc + ([h] if h else [])))

    return resolve({}, list(sp), [])


def _var_sremp_inf_from(ctx: Ctx, ph: PolyF, q: PolyF, k: Callable[[Ctx, int], Formula]) -> Formula:
    """var at -oo minus var at +oo of the remainder sequence of (ph, q),
    with ph already whnf-resolved and nonzero."""
    return _sremp_from(
        ctx,
        ph,
        q,
        lambda c, seq: _lead_signs(
            c,
            seq,
            lambda c2, signs: k(
                c2,
                _var_from_signs(signs, [len(e) for e in seq], NEG_INF)
                - _var_from_signs(signs, [len(e) for e in seq], POS_INF),
            ),
        ),
    )


def var_sremp_inf_cps(p: PolyF, q: PolyF, k: IntCont) -> Formula:
    """Continuation receives var_sremp_inf of the evaluated polynomials."""
    return _whnf(
        {}, p, lambda c, ph: k(0) if not ph else _var_sremp_inf_from(c, ph, q, lambda _, v: k(v))
    )


def monic_cps(p: PolyF, k: PolyCont) -> Formula:
    """Continuation receives a formal polynomial whose evaluation is monic
    and whose roots are the original's scaled by the leading coefficient.
    Zero and constant evaluations pass through unchanged."""

    def transform(_: Ctx, ph: PolyF) -> Formula:
        if len(ph) < 2:
            return k(ph)
        n = len(ph) - 1
        lead = ph[-1]
        out: list[Term] = []
        for i in range(n):
            c: Term = ph[i]
            for _unused in range(n - 1 - i):
                c = F.Mul(c, lead)
            out.append(norm_term(c))
        out.append(ONE)
        return k(tuple(out))

    return _whnf({}, p, transform)


# -- the univariate decision and its lifted counterpart -------------------


def dec(p: Poly, sq: Sequence[Poly], on_zero: str = "strict") -> bool:
    """Decide "exists x, p(x) = 0 and all q(x) > 0" over the reals, by
    checking the signs of the constraints at each isolated root of p.

    With on_zero="strict", the zero polynomial (satisfied everywhere)
    delegates to dec_strict; with on_zero="false" that case is decided
    false (used below where the caller covers it separately).
    """
    if p.is_zero:
        return dec_strict(sq) if on_zero == "strict" else False
    if p.degree == 0:
        return False
    g = p.squarefree_part()
    return any(
        all(sign_at_root(g, root.interval, q) == 1 for q in sq)
        for root in isolate_roots(g)
    )


def dec_strict(sq: Sequence[Poly]) -> bool:
    """Decide "exists x, all q(x) > 0" over the reals: a witness exists at
    +oo, at -oo, or at a critical point of the product."""
    if not sq:
        return True
    if all(sign_at_inf(q, POS_INF) == 1 for q in sq):
        return True
    if all(sign_at_inf(q, NEG_INF) == 1 for q in sq):
        return True
    prod = Poly.const(Fraction(1))
    for q in sq:
        prod = prod * q
    dprod = prod.deriv()
    if dprod.is_zero:
        return False
    return dec(dprod, sq, on_zero="false")


def _prod_powF(sq: Sequence[PolyF], eps: Sequence[int]) -> PolyF:
    out: PolyF = (ONE,)
    for q, e in zip(sq, eps):
        out = mulF(out, powF(q, e))
    return out


def decF(p: PolyF, sq: Sequence[PolyF], on_zero: str = "strict") -> Formula:
    """Lifted counterpart of dec: a quantifier-free formula over the
    coefficient parameters whose truth at any environment equals
    dec(eval_poly(e, p), [eval_poly(e, q) ...])."""
    if polyf_has_inv(p) or any(polyf_has_inv(q) for q in sq):
        raise ValueError("decF requires Inv-free coefficients (run elim_inv first)")
    return _decF({}, tuple(p), [tuple(q) for q in sq], on_zero)


def _groundF(p: PolyF) -> Optional[Poly]:
    values = [_ground(c) for c in p]
    if any(v is None for v in values):
        return None
    return Poly(values)


def _decF(ctx: Ctx, p: PolyF, sq: list[PolyF], on_zero: str) -> Formula:
    pg = _groundF(p)
    if pg is not None:
        sgs = [_groundF(q) for q in sq]
        if all(g is not None for g in sgs):
            return Bool(dec(pg, sgs, on_zero))

    def after(ctx2: Ctx, ph: PolyF) -> Formula:
        if not ph:
            return _decF_strict(ctx2, sq) if on_zero == "strict" else F.FALSE
        if len(ph) == 1:
            return F.FALSE
        n = len(sq)
        dph = derivF(ph)
        # Only the 2^n exponent vectors in {1, 2}^n have nonzero weight.
        terms = [
            (w, mulF(dph, _prod_powF(sq, eps)))
            for w, eps in zip(first_count_weights(n), exponent_vectors(n))
            if w
        ]

        def go(c: Ctx, idx: int, total: Fraction) -> Formula:
            if idx == len(terms):
                return Bool(total > 0)
            w, prod = terms[idx]
            return _var_sremp_inf_from(
                c, ph, prod, lambda c2, v: go(c2, idx + 1, total + w * v)
            )

        return go(ctx2, 0, Fraction(0))

    return _whnf(ctx, p, after)


def decF_strict(sq: Sequence[PolyF]) -> Formula:
    """Lifted counterpart of dec_strict: true iff some point makes every
    constraint polynomial positive under the environment."""
    if any(polyf_has_inv(q) for q in sq):
        raise ValueError("decF_strict requires Inv-free coefficients")
    return _decF_strict({}, [tuple(q) for q in sq])


def _decF_strict(ctx: Ctx, sq: list[PolyF]) -> Formula:
    if not sq:
        return F.TRUE
    sgs = [_groundF(q) for q in sq]
    if all(g is not None for g in sgs):
        return Bool(dec_strict(sgs))

    def critical(c: Ctx) -> Formula:
        prod: PolyF = (ONE,)
        for q in sq:
            prod = mulF(prod, q)
        return _decF(c, derivF(prod), sq, on_zero="false")

    def infinities(c: Ctx, rest: Sequence[PolyF], acc: list[tuple[int, int]]) -> Formula:
        # acc holds (lead sign, size) pairs; a zero polynomial makes the
        # whole conjunction unsatisfiable.
        if not rest:
            plus = all(s == 1 for s, _ in acc)
            minus = all((s if size % 2 == 1 else -s) == 1 for s, size in acc)
            return F.TRUE if (plus or minus) else critical(c)

        def with_head(c2: Ctx, h: PolyF) -> Formula:
            if not h:
                return F.FALSE
            return _case_sign(c2, h[-1], lambda c3, s: infinities(c3, rest[1:], acc + [(s, len(h))]))

        return _whnf(c, rest[0], with_head)

    return infinities(ctx, sq, [])
