"""Formal polynomials with parameter-polynomial coefficients and the
lifted decision procedure for one existential block.

A formal polynomial (PolyF) is a sequence of terms, lowest degree first;
its coefficients cannot be normalized without knowing the parameter
values.  Ring operations lift directly (the evaluation diagram commutes
term by term).  Everything that branches on whether a coefficient is zero
-- leading coefficients, degrees, remainder sequences -- is written in
continuation passing style: the continuation receives the resolved value
and returns a formula, and each data-dependent branch becomes an if_cps
case split whose condition is the discriminating sign condition.

Inside this module a coefficient is an MPoly: an immutable sparse map
from monomials to rationals whose hash is computed once, on first use.
The public functions take and return terms; each converts its input once
and builds terms again only for the values it hands back and for the
atoms it emits; no term is hashed.  An atom is stated on the canonical
scaling of its coefficient, and canonical values are interned, so each
distinct sign condition builds its term once.  Case splits are built with
formula's folding constructors, so every result is already folded.

Three ingredients keep the output from exploding:

* coefficients are polynomials in normal form, so ground conditions
  evaluate outright instead of branching,

* the case splits thread a context of sign facts already assumed on the
  current branch, so a condition whose sign is forced by earlier splits
  is folded instead of duplicated, and

* decF chains its Tarski queries, and the rest of the chain after each
  query is memoized on (query index, running total) together with the
  context facts it read, so the case tree that recurs under every leaf of
  the query before is built once and shared: the result is a DAG.

Pseudo-division multiplies through by an even power of the formal leading
coefficient, so that whenever the evaluated leading coefficient is
nonzero the multiplier is strictly positive and sign-change counts are
untouched.  One loop computes it: remainder sequences use its remainder,
and pseudo_divmod_cps rebuilds the quotient in closed form from the
leading coefficients the loop eliminated.  Degrees are resolved by one
zero-test walk, _whnf, from the top coefficient down, and sign changes
at infinity are counted by the ground rule, sturm.var_signs_at_inf, on
the signs the case splits resolve.  Input coefficients are checked once,
on conversion: a non-constant Inv raises ValueError.
"""

from __future__ import annotations

import math
import sys
import weakref
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
from .sturm import NEG_INF, POS_INF, sign_at_inf, var_signs_at_inf

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


# -- coefficient polynomials -----------------------------------------------

# A monomial is a sorted tuple of (variable index, exponent) pairs.
_Mono = tuple[tuple[int, int], ...]


class _NotPolynomial(Exception):
    pass


def _mono_key(item: tuple[_Mono, Fraction]) -> tuple:
    mono, _ = item
    return (sum(e for _, e in mono), mono)


def _mono_mul(a: _Mono, b: _Mono) -> _Mono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _acc(out: dict, mono: _Mono, c: Fraction) -> None:
    """out[mono] += c, keeping no zero coefficient."""
    s = out.get(mono)
    if s is None:
        out[mono] = c
    else:
        s += c
        if s:
            out[mono] = s
        else:
            del out[mono]


def _acc_mul(out: dict, a: dict, b: dict) -> None:
    """out += a * b, on monomial maps."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _acc(out, _mono_mul(m1, m2), c1 * c2)


class MPoly:
    """An immutable polynomial in the parameters: a map from monomials to
    nonzero rationals.  Its hash, its canonical scaling and its term form
    are computed once, on first use.

    The constructor takes ownership of the map, which must hold no zero
    coefficient and must not be mutated afterwards.
    """

    __slots__ = ("terms", "_hash", "_canon", "_flip", "_term", "_neg_term", "__weakref__")

    def __init__(self, terms: dict[_Mono, Fraction]) -> None:
        self.terms = terms
        self._hash: Optional[int] = None
        self._canon: Optional[MPoly] = None  # None while unknown or when self is canonical
        self._flip = 0  # 0 while canon() has not run
        self._term: Optional[Term] = None
        self._neg_term: Optional[Term] = None

    @staticmethod
    def const(c: Fraction) -> MPoly:
        return MPoly({(): Fraction(c)} if c else {})

    @staticmethod
    def var(index: int) -> MPoly:
        return MPoly({((index, 1),): Fraction(1)})

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"MPoly({self.terms!r})"

    def __add__(self, other: MPoly) -> MPoly:
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, c)
        return MPoly(out)

    def __neg__(self) -> MPoly:
        return MPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: MPoly) -> MPoly:
        out: dict[_Mono, Fraction] = {}
        _acc_mul(out, self.terms, other.terms)
        return MPoly(out)

    def __pow__(self, n: int) -> MPoly:
        out = ONE_M
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: Fraction) -> MPoly:
        if c == 1:
            return self
        if not c:
            return ZERO_M
        return MPoly({m: c * v for m, v in self.terms.items()})

    def ground(self) -> Optional[Fraction]:
        """The value of a constant polynomial; None when a variable occurs."""
        terms = self.terms
        if not terms:
            return Fraction(0)
        if len(terms) == 1:
            return terms.get(())
        return None

    def canon(self) -> tuple[MPoly, int]:
        """The interned positive rescaling whose least monomial has
        coefficient +1, and the flip sign: sign(self) = flip * sign(canon)."""
        if not self._flip:
            if self.terms:
                _, coeff = min(self.terms.items(), key=_mono_key)
                self._flip = sgr(coeff)
                canon = _intern(self.scale(1 / coeff))
            else:
                self._flip = 1
                canon = _intern(self)
            if canon is not self:
                self._canon = canon
        return (self if self._canon is None else self._canon), self._flip

    def to_term(self) -> Term:
        if self._term is None:
            self._term = _rebuild(self.terms)
        return self._term

    def signed_term(self, sign: int) -> Term:
        """Term of sign * self."""
        if sign == 1:
            return self.to_term()
        if self._neg_term is None:
            self._neg_term = _rebuild({m: -c for m, c in self.terms.items()})
        return self._neg_term


ZERO_M = MPoly({})
ONE_M = MPoly.const(Fraction(1))

PolyM = tuple[MPoly, ...]

# Canonical coefficients by their monomial maps; an entry lives as long as
# its value is referenced elsewhere.
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _intern(m: MPoly) -> MPoly:
    return _interned.setdefault(frozenset(m.terms.items()), m)


def _mono_term(mono: _Mono, coeff: Fraction) -> Term:
    factors: list[Term] = []
    for v, e in mono:
        factors.extend([F.Var(v)] * e)
    if not factors:
        return F.Const(coeff)
    body = F.balanced(factors, F.Mul)
    if coeff == 1:
        return body
    return F.Mul(F.Const(coeff), body)


def _rebuild(pm: dict[_Mono, Fraction]) -> Term:
    parts = [_mono_term(m, c) for m, c in sorted(pm.items(), key=_mono_key)]
    if not parts:
        return ZERO
    return F.balanced(parts, F.Add)


def _from_term(t: Term) -> MPoly:
    if isinstance(t, F.Var):
        return MPoly.var(t.index)
    if isinstance(t, F.Const):
        return MPoly.const(t.value)
    if isinstance(t, F.Opp):
        return -_from_term(t.arg)
    if isinstance(t, F.Add):
        return _from_term(t.left) + _from_term(t.right)
    if isinstance(t, F.Mul):
        return _from_term(t.left) * _from_term(t.right)
    if isinstance(t, F.Inv):
        inner = _from_term(t.arg)
        value = inner.ground()
        if value is None:
            raise _NotPolynomial
        return MPoly.const(1 / value) if value else inner
    raise TypeError(f"not a term: {t!r}")


def _mpoly(t: Term) -> Optional[MPoly]:
    """The value of a term; None when it has a non-constant Inv, which has
    no polynomial normal form."""
    try:
        return _from_term(t)
    except _NotPolynomial:
        return None


def _coeffs(p: Sequence[Term]) -> PolyM:
    out = []
    for t in p:
        m = _mpoly(t)
        if m is None:
            raise ValueError("formal polynomial coefficients must be Inv-free (run elim_inv first)")
        out.append(m)
    return tuple(out)


def _terms(p: Sequence[MPoly]) -> PolyF:
    return tuple(c.to_term() for c in p)


def norm_term(t: Term) -> Term:
    """Canonical polynomial normal form of an Inv-free term; terms whose
    Inv subterms are non-constant are returned unchanged."""
    m = _mpoly(t)
    return t if m is None else m.to_term()


def max_var_degree(t: Term) -> int:
    """Highest exponent of a single variable in the normal form of t; 0
    for constants and for terms with a non-constant Inv."""
    m = _mpoly(t)
    if m is None:
        return 0
    return max((e for mono in m.terms for _, e in mono), default=0)


# -- formula constant folding --------------------------------------------


def _fold_atom(f: Formula) -> Formula:
    eq = isinstance(f, Equal)
    # norm_term hands back a term only, so the value is read back by
    # converting that normal form.
    d = norm_term(sub(f.left, f.right) if eq else sub(f.right, f.left))
    m = _mpoly(d)
    if m is None:
        return Equal(d, ZERO) if eq else type(f)(ZERO, d)
    g = m.ground()
    if g is not None:
        return Bool(g == 0 if eq else g > 0 if isinstance(f, Lt) else g >= 0)
    if eq:
        return _atom_eq(m)
    canon, flip = m.canon()
    return type(f)(ZERO, canon.signed_term(flip))


def fold_formula(f: Formula) -> Formula:
    """Bottom-up semantics-preserving simplification: evaluate ground
    atoms, normalize atom terms, and rebuild connectives with the folding
    constructors of formula.  Every formula decF and decF_strict return is
    already a fixpoint, so only input formulas need folding."""
    return _fold(f, {})


_FOLD_BINARY = {And: F.and_, Or: F.or_, F.Implies: F.implies_}


def _fold(f: Formula, atoms: dict) -> Formula:
    """fold_formula, folding each atom once per call: an inner block's
    lifted result, in an outer block's body, repeats each atom with the same
    term objects, so atoms are keyed by the identity of their terms (each
    entry keeps its atom, and with it those terms, alive for the call)."""
    if isinstance(f, Bool):
        return f
    if isinstance(f, (Equal, Lt, F.Le)):
        key = (type(f), id(f.left), id(f.right))
        hit = atoms.get(key)
        if hit is None:
            hit = atoms[key] = (f, _fold_atom(f))
        return hit[1]
    build = _FOLD_BINARY.get(type(f))
    if build is not None:
        return build(_fold(f.left, atoms), _fold(f.right, atoms))
    if isinstance(f, Not):
        return F.not_(_fold(f.arg, atoms))
    if isinstance(f, F.Exists):
        return F.Exists(f.index, _fold(f.body, atoms))
    if isinstance(f, F.Forall):
        return F.Forall(f.index, _fold(f.body, atoms))
    raise TypeError(f"not a formula: {f!r}")


# -- formal polynomial ring operations (direct counterparts) --------------
#
# The private ring operations work on tuples of MPoly; the public ones
# (on tuples of terms) convert their arguments and results.


def _addM(p: PolyM, q: PolyM) -> PolyM:
    if len(p) < len(q):
        p, q = q, p
    return tuple(a + q[i] if i < len(q) else a for i, a in enumerate(p))


def _oppM(p: PolyM) -> PolyM:
    return tuple(-c for c in p)


def _mulM(p: PolyM, q: PolyM) -> PolyM:
    if not p or not q:
        return ()
    out: list[dict] = [{} for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            _acc_mul(out[i + j], a.terms, b.terms)
    return tuple(MPoly(c) for c in out)


def _derivM(p: PolyM) -> PolyM:
    return tuple(c.scale(Fraction(i)) for i, c in enumerate(p) if i > 0)


def _powM(p: PolyM, n: int) -> PolyM:
    out: PolyM = (ONE_M,)
    for _ in range(n):
        out = _mulM(out, p)
    return out


def eval_poly(env: Sequence[Fraction], p: PolyF) -> Poly:
    """Evaluate every coefficient, then normalize into a Poly."""
    return Poly([eval_term(env, c) for c in p])


def addF(p: PolyF, q: PolyF) -> PolyF:
    return _terms(_addM(_coeffs(p), _coeffs(q)))


def oppF(p: PolyF) -> PolyF:
    return _terms(_oppM(_coeffs(p)))


def mulF(p: PolyF, q: PolyF) -> PolyF:
    return _terms(_mulM(_coeffs(p), _coeffs(q)))


def scaleF(t: Term, p: PolyF) -> PolyF:
    (s,) = _coeffs((t,))
    return _terms(tuple(s * c for c in _coeffs(p)))


def derivF(p: PolyF) -> PolyF:
    return _terms(_derivM(_coeffs(p)))


def powF(p: PolyF, n: int) -> PolyF:
    return _terms(_powM(_coeffs(p), n))


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


# -- sign contexts ---------------------------------------------------------

# A context maps canonical coefficients to the signs they may still take
# on the current branch.
Ctx = dict[MPoly, frozenset]


# The key sets read by the open memo frames of _decF, innermost last;
# empty outside a decF call.
_reads: list[set] = []


def _read(ctx: Ctx, key: MPoly) -> frozenset:
    """The signs the context allows a canonical key, recorded as read by
    the innermost open memo frame: every context read goes through here."""
    if _reads:
        _reads[-1].add(key)
    return ctx.get(key, ALL_SIGNS)


def _single_mono(m: MPoly) -> Optional[tuple[Fraction, _Mono]]:
    if len(m.terms) != 1:
        return None
    mono, coeff = next(iter(m.terms.items()))
    return coeff, mono


def _possible_signs(ctx: Ctx, t: MPoly) -> frozenset:
    """Signs the coefficient may still take under the context."""
    g = t.ground()
    if g is not None:
        return frozenset((sgr(g),))
    canon, flip = t.canon()
    poss = _read(ctx, canon)
    mono = _single_mono(canon)
    if mono is not None:
        coeff, factors = mono
        combined = {sgr(coeff)}
        for v, e in factors:
            var_poss = _read(ctx, MPoly.var(v))
            step = set()
            for s in var_poss:
                fs = 0 if s == 0 else (1 if e % 2 == 0 else s)
                step.update(fs * c for c in combined)
            combined = step
        poss = poss & frozenset(combined)
    if flip == -1:
        poss = frozenset(-s for s in poss)
    return poss


def _learn(ctx: Ctx, t: MPoly, signs: frozenset) -> Ctx:
    """Extend the context with the fact sign(t) in signs."""
    canon, flip = t.canon()
    if flip == -1:
        signs = frozenset(-s for s in signs)
    out = dict(ctx)
    out[canon] = _read(out, canon) & signs
    known = out[canon]
    mono = _single_mono(canon)
    if mono is not None:
        _, factors = mono
        if 0 not in known:
            for v, _ in factors:
                key = MPoly.var(v)
                out[key] = _read(out, key) & frozenset((-1, 1))
        if len(factors) == 1:
            v, e = factors[0]
            key = MPoly.var(v)
            if known == frozenset((0,)):
                out[key] = _read(out, key) & frozenset((0,))
            elif len(known) == 1 and e % 2 == 1:
                out[key] = _read(out, key) & known
    return out


def _atom_eq(t: MPoly) -> Formula:
    return Equal(t.canon()[0].to_term(), ZERO)


def _atom_pos(t: MPoly) -> Formula:
    canon, flip = t.canon()
    return Lt(ZERO, canon.signed_term(flip))


def _mk_ite(cond: Formula, th: Formula, el: Formula) -> Formula:
    """Or(And(cond, th), And(Not(cond), el)), built with the folding
    constructors: folded when its arguments are."""
    if th == el:
        return th
    if th == F.TRUE:
        return F.or_(cond, el)
    if el == F.TRUE:
        return F.or_(F.not_(cond), th)
    return F.or_(F.and_(cond, th), F.and_(F.not_(cond), el))


def _case_zero(ctx: Ctx, t: MPoly, k: Callable[[Ctx, bool], Formula]) -> Formula:
    """Split on whether the coefficient is zero, unless the context decides it."""
    poss = _possible_signs(ctx, t)
    if 0 not in poss:
        return k(ctx, False)
    if poss == frozenset((0,)):
        return k(ctx, True)
    th = k(_learn(ctx, t, frozenset((0,))), True)
    el = k(_learn(ctx, t, frozenset((-1, 1))), False)
    return _mk_ite(_atom_eq(t), th, el)


def _case_sign(ctx: Ctx, t: MPoly, k: Callable[[Ctx, int], Formula]) -> Formula:
    """Split on the sign of the coefficient, folding context-decided cases."""

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
    return _mk_ite(fold_formula(cond), th, el)


def _whnf(ctx: Ctx, p: PolyM, k: Callable[[Ctx, PolyM], Formula]) -> Formula:
    """Resolve the true degree: the continuation receives a prefix whose
    last coefficient is nonzero under the branch context (or ())."""
    if not p:
        return k(ctx, ())
    return _case_zero(
        ctx,
        p[-1],
        lambda c, z: _whnf(c, p[:-1], k) if z else k(c, p),
    )


def lcoef_cps(p: PolyF, k: TermCont) -> Formula:
    """Continuation receives the leading coefficient of the evaluated
    polynomial (0 for the zero polynomial)."""
    return _whnf({}, _coeffs(p), lambda _, q: k(q[-1].to_term() if q else ZERO))


def size_cps(p: PolyF, k: IntCont) -> Formula:
    """Continuation receives the size (degree + 1; 0 for zero) of the
    evaluated polynomial."""
    return _whnf({}, _coeffs(p), lambda _, q: k(len(q)))


_prem_cache: dict[tuple[PolyM, PolyM], PolyM] = {}


def _pseudo_rem_even(p: PolyM, q: PolyM) -> tuple[PolyM, list[MPoly]]:
    """Pseudo-remainder of p by q with an even-power multiplier, and the
    leading coefficients eliminated at its steps, highest degree first.

    Both arguments must carry their true leading coefficient (whnf).  The
    remainder has structural degree < deg q but is not itself whnf.
    """
    dp, dq = len(p) - 1, len(q) - 1
    lc = q[-1]
    r = p
    tops: list[MPoly] = []
    for kdeg in range(dp, dq - 1, -1):
        # r := lc * r - top * x^(kdeg - dq) * q, less its cancelled top term
        top = r[-1]
        tops.append(top)
        minus_top = (-top).terms
        out = []
        for j in range(kdeg):
            acc: dict[_Mono, Fraction] = {}
            _acc_mul(acc, lc.terms, r[j].terms)
            shift = j - (kdeg - dq)
            if 0 <= shift < dq:
                _acc_mul(acc, minus_top, q[shift].terms)
            out.append(MPoly(acc))
        r = tuple(out)
    if len(tops) % 2 == 1:
        r = tuple(lc * c for c in r)
    return r, tops


def pseudo_divmod_cps(p: PolyF, q: PolyF, k: Callable[[Term, PolyF, PolyF], Formula]) -> Formula:
    """Continuation receives (scalp, quot, rem) of the even-multiplier
    pseudo-division of the evaluated polynomials.  In the branch where q
    evaluates to zero the continuation receives (1, 0, p)."""

    def divide(ph: PolyM, qh: PolyM) -> Formula:
        if not qh:
            return k(ONE, (), _terms(ph))
        rem, tops = _pseudo_rem_even(ph, qh)
        # scalp = lc^e with e = len(tops) rounded up to even; the top
        # eliminated at step j is multiplied by lc at each later step.
        lc, e = qh[-1], len(tops) + len(tops) % 2
        quot = [top * lc ** (e - 1 - j) for j, top in enumerate(tops)]
        return k((lc**e).to_term(), _terms(quot[::-1]), _terms(rem))

    qm = _coeffs(q)
    return _whnf({}, _coeffs(p), lambda c1, ph: _whnf(c1, qm, lambda _, qh: divide(ph, qh)))


def _sremp(ctx: Ctx, p: PolyM, q: PolyM, k: Callable[[Ctx, list[PolyM]], Formula]) -> Formula:
    return _whnf(ctx, p, lambda c, ph: k(c, []) if not ph else _sremp_from(c, ph, q, k))


def _sremp_from(ctx: Ctx, ph: PolyM, q: PolyM, k: Callable[[Ctx, list[PolyM]], Formula]) -> Formula:
    return _whnf(ctx, q, lambda c, qh: k(c, [ph]) if not qh else _sremp_loop(c, [ph, qh], k))


def _primitiveF(p: PolyM) -> PolyM:
    """Divide out the positive rational content of the coefficients; a
    positive rescaling, so sign-change counts are unaffected."""
    coeffs = [v for c in p for v in c.terms.values()]
    if not coeffs:
        return p
    g = Fraction(math.gcd(*(v.numerator for v in coeffs)), math.lcm(*(v.denominator for v in coeffs)))
    if g == 1:
        return p
    return tuple(c.scale(1 / g) for c in p)


def _next_rem(p: PolyM, q: PolyM) -> PolyM:
    """The next element of a signed remainder sequence: -prem(p, q) with
    its content divided out.  Cached, since remainder chains are rebuilt
    along every sign-split branch, and a cached element keeps its
    coefficients' canonical forms."""
    rem = _prem_cache.get((p, q))
    if rem is None:
        rem = _prem_cache[(p, q)] = _primitiveF(_oppM(_pseudo_rem_even(p, q)[0]))
    return rem


def _sremp_loop(ctx: Ctx, seq: list[PolyM], k: Callable[[Ctx, list[PolyM]], Formula]) -> Formula:
    neg = _next_rem(seq[-2], seq[-1])
    return _whnf(ctx, neg, lambda c, rh: k(c, seq) if not rh else _sremp_loop(c, seq + [rh], k))


def sremp_cps(p: PolyF, q: PolyF, k: Callable[[list[PolyF]], Formula]) -> Formula:
    """Continuation receives the signed remainder sequence of the
    evaluated polynomials, each element a positive multiple of its exact
    counterpart (sign-change counts are therefore identical)."""
    return _sremp({}, _coeffs(p), _coeffs(q), lambda _, seq: k([_terms(e) for e in seq]))


def _lead_signs(ctx: Ctx, seq: Sequence[PolyM], k: Callable[[Ctx, list[int]], Formula]) -> Formula:
    """Signs of the (guaranteed nonzero) leading coefficients of a
    whnf-resolved sequence."""
    if not seq:
        return k(ctx, [])
    return _case_sign(
        ctx,
        seq[0][-1],
        lambda c, s: _lead_signs(c, seq[1:], lambda c2, rest: k(c2, [s] + rest)),
    )


def var_at_inf_cps(sp: Sequence[PolyF], direction: int, k: IntCont) -> Formula:
    """Continuation receives the sign-change count of the evaluated
    sequence at the chosen infinity (zero evaluations skipped)."""
    if direction not in (NEG_INF, POS_INF):
        raise ValueError("direction must be NEG_INF or POS_INF")

    def resolve(ctx: Ctx, rest: Sequence[PolyM], acc: list[PolyM]) -> Formula:
        if not rest:
            return _lead_signs(
                ctx,
                acc,
                lambda _, signs: k(var_signs_at_inf(signs, [len(e) for e in acc], direction)),
            )
        return _whnf(ctx, rest[0], lambda c, h: resolve(c, rest[1:], acc + ([h] if h else [])))

    return resolve({}, [_coeffs(e) for e in sp], [])


def _var_sremp_inf_from(ctx: Ctx, ph: PolyM, q: PolyM, k: Callable[[Ctx, int], Formula]) -> Formula:
    """var at -oo minus var at +oo of the remainder sequence of (ph, q),
    with ph already whnf-resolved and nonzero."""

    def count(c: Ctx, seq: list[PolyM]) -> Formula:
        sizes = [len(e) for e in seq]
        return _lead_signs(
            c,
            seq,
            lambda c2, signs: k(
                c2, var_signs_at_inf(signs, sizes, NEG_INF) - var_signs_at_inf(signs, sizes, POS_INF)
            ),
        )

    return _sremp_from(ctx, ph, q, count)


def var_sremp_inf_cps(p: PolyF, q: PolyF, k: IntCont) -> Formula:
    """Continuation receives var_sremp_inf of the evaluated polynomials."""
    qm = _coeffs(q)
    return _whnf(
        {}, _coeffs(p), lambda c, ph: k(0) if not ph else _var_sremp_inf_from(c, ph, qm, lambda _, v: k(v))
    )


def monic_cps(p: PolyF, k: PolyCont) -> Formula:
    """Continuation receives a formal polynomial whose evaluation is monic
    and whose roots are the original's scaled by the leading coefficient.
    Zero and constant evaluations pass through unchanged."""

    def transform(_: Ctx, ph: PolyM) -> Formula:
        if len(ph) < 2:
            return k(_terms(ph))
        n = len(ph) - 1
        lead = ph[-1]
        return k(_terms([ph[i] * lead ** (n - 1 - i) for i in range(n)]) + (ONE,))

    return _whnf({}, _coeffs(p), transform)


# -- the univariate decision and its lifted counterpart -------------------


def dec(p: Poly, sq: Sequence[Poly]) -> bool:
    """Decide "exists x, p(x) = 0 and all q(x) > 0" over the reals, by
    checking the signs of the constraints at each isolated root of p.

    The zero polynomial vanishes everywhere, so that case is dec_strict.
    """
    if p.is_zero:
        return dec_strict(sq)
    return any(
        all(sign_at_root(p, root.interval, q) == 1 for q in sq)
        for root in isolate_roots(p)
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
    return dec(dprod, sq)


def _prod_powF(sq: Sequence[PolyM], eps: Sequence[int]) -> PolyM:
    out: PolyM = (ONE_M,)
    for q, e in zip(sq, eps):
        out = _mulM(out, _powM(q, e))
    return out


def decF(p: PolyF, sq: Sequence[PolyF]) -> Formula:
    """Lifted counterpart of dec: a quantifier-free formula over the
    coefficient parameters whose truth at any environment equals
    dec(eval_poly(e, p), [eval_poly(e, q) ...]); where p evaluates to
    zero, that is decF_strict(sq)."""
    return _decF({}, _coeffs(p), [_coeffs(q) for q in sq])


def _groundF(p: PolyM) -> Optional[Poly]:
    values = [c.ground() for c in p]
    if any(v is None for v in values):
        return None
    return Poly(values)


def _decF(ctx: Ctx, p: PolyM, sq: list[PolyM]) -> Formula:
    pg = _groundF(p)
    if pg is not None:
        sgs = [_groundF(q) for q in sq]
        if all(g is not None for g in sgs):
            return Bool(dec(pg, sgs))

    def after(ctx2: Ctx, ph: PolyM) -> Formula:
        if not ph:
            return _decF_strict(ctx2, sq)
        if len(ph) == 1:
            return F.FALSE
        n = len(sq)
        dph = _derivM(ph)
        # Only the 2^n exponent vectors in {1, 2}^n have nonzero weight.
        terms = [
            (w, _mulM(dph, _prod_powF(sq, eps)))
            for w, eps in zip(first_count_weights(n), exponent_vectors(n))
            if w
        ]

        # The rest of the chain from (idx, total) depends on the context
        # only through the keys it reads, so a subtree built once is reused
        # wherever the context agrees with it on those keys.
        memo: dict[tuple[int, Fraction], list[tuple[list, Formula]]] = {}

        def go(c: Ctx, idx: int, total: Fraction) -> Formula:
            if idx == len(terms):
                return Bool(total > 0)
            entries = memo.setdefault((idx, total), [])
            for facts, f in entries:
                if all(c.get(key, ALL_SIGNS) == signs for key, signs in facts):
                    break
            else:
                _reads.append(set())
                try:
                    w, prod = terms[idx]
                    f = _var_sremp_inf_from(c, ph, prod, lambda c2, v: go(c2, idx + 1, total + w * v))
                finally:
                    keys = _reads.pop()
                facts = [(key, c.get(key, ALL_SIGNS)) for key in keys]
                entries.append((facts, f))
            if _reads:
                _reads[-1].update(key for key, _ in facts)
            return f

        return go(ctx2, 0, Fraction(0))

    return _whnf(ctx, p, after)


def decF_strict(sq: Sequence[PolyF]) -> Formula:
    """Lifted counterpart of dec_strict: true iff some point makes every
    constraint polynomial positive under the environment."""
    return _decF_strict({}, [_coeffs(q) for q in sq])


def _decF_strict(ctx: Ctx, sq: list[PolyM]) -> Formula:
    if not sq:
        return F.TRUE
    sgs = [_groundF(q) for q in sq]
    if all(g is not None for g in sgs):
        return Bool(dec_strict(sgs))

    prod: PolyM = (ONE_M,)
    for q in sq:
        prod = _mulM(prod, q)
    dprod = _derivM(prod)

    def critical(c: Ctx) -> Formula:
        return _whnf(c, dprod, lambda c2, d: _decF(c2, d, sq) if d else F.FALSE)

    def infinities(c: Ctx, rest: Sequence[PolyM], acc: list[tuple[int, int]]) -> Formula:
        # acc holds (lead sign, size) pairs; a zero polynomial makes the
        # whole conjunction unsatisfiable.
        if not rest:
            plus = all(s == 1 for s, _ in acc)
            minus = all((s if size % 2 == 1 else -s) == 1 for s, size in acc)
            return F.TRUE if (plus or minus) else critical(c)

        def with_head(c2: Ctx, h: PolyM) -> Formula:
            if not h:
                return F.FALSE
            return _case_sign(c2, h[-1], lambda c3, s: infinities(c3, rest[1:], acc + [(s, len(h))]))

        return _whnf(c, rest[0], with_head)

    return infinities(ctx, sq, [])
