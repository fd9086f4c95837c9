"""Shared random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from tarski.formula import (
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
)
from tarski.poly import Poly


def rand_fraction(rng: random.Random, bound: int = 10) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_int_poly(rng: random.Random, max_degree: int = 8, bound: int = 10) -> Poly:
    degree = rng.randint(0, max_degree)
    return Poly([Fraction(rng.randint(-bound, bound)) for _ in range(degree + 1)])


def rand_nonzero_poly(rng: random.Random, max_degree: int = 8, bound: int = 10) -> Poly:
    while True:
        p = rand_int_poly(rng, max_degree, bound)
        if not p.is_zero:
            return p


def rand_rational_poly(rng: random.Random, max_degree: int = 16) -> Poly:
    """Random polynomial with rational coefficients, for the kernel tests:
    zero coefficients at any position (so leading terms vanish during
    division), either sign, and denominators drawn below 1, 10^3 or 10^12."""
    degree = rng.randint(-1, max_degree)
    den_bound = rng.choice([1, 10 ** 3, 10 ** 12])
    num_bound = rng.choice([5, 10 ** 6])
    return Poly([
        Fraction(0) if rng.random() < 0.3
        else Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        for _ in range(degree + 1)
    ])


class RefPoly:
    """Reference dense polynomial on one Fraction per coefficient, with the
    straightforward field loops; the kernel tests check Poly against it."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def _get(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RefPoly") -> "RefPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly([self._get(i) + other._get(i) for i in range(n)])

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly([self._get(i) - other._get(i) for i in range(n)])

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        if not self.coeffs or not other.coeffs:
            return RefPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def eval(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deriv(self) -> "RefPoly":
        return RefPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, q: "RefPoly") -> tuple["RefPoly", "RefPoly"]:
        rem = list(self.coeffs)
        dq = len(q.coeffs) - 1
        quot = [Fraction(0)] * max(0, len(rem) - dq)
        while len(rem) > dq:
            c = rem[-1] / q.coeffs[-1]
            k = len(rem) - 1 - dq
            quot[k] = c
            for i in range(dq):
                rem[k + i] -= c * q.coeffs[i]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return RefPoly(quot), RefPoly(rem)

    def monic(self) -> "RefPoly":
        return RefPoly([c / self.coeffs[-1] for c in self.coeffs]) if self.coeffs else self

    def gcd(self, other: "RefPoly") -> "RefPoly":
        a, b = self, other
        while b.coeffs:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def squarefree_decomposition(self) -> list[tuple["RefPoly", int]]:
        p = self.monic()
        if len(p.coeffs) < 2:
            return []
        out = []
        g = p.gcd(p.deriv())
        c = p.divmod(g)[0]
        d = p.deriv().divmod(g)[0] - c.deriv()
        i = 1
        while len(c.coeffs) >= 2:
            f = c.gcd(d)
            if len(f.coeffs) >= 2:
                out.append((f.monic(), i))
            c, d = c.divmod(f)[0], d.divmod(f)[0] - c.divmod(f)[0].deriv()
            i += 1
        return out


def linear_factor_poly(rng: random.Random, max_factors: int = 5, max_mult: int = 3):
    """Product of distinct rational linear factors with multiplicities;
    returns (poly, {root: multiplicity})."""
    n = rng.randint(1, max_factors)
    roots: dict[Fraction, int] = {}
    while len(roots) < n:
        roots[rand_fraction(rng, 6)] = rng.randint(1, max_mult)
    p = Poly.const(Fraction(rng.choice([1, 2, -1, 3])))
    for root, mult in roots.items():
        for _ in range(mult):
            p = p * Poly([-root, Fraction(1)])
    return p, roots


def rand_term(rng: random.Random, depth: int, nvars: int, const_bias: float = 0.5) -> Term:
    r = rng.random()
    if depth == 0 or r < 0.35:
        if rng.random() < const_bias or nvars == 0:
            return Const(rand_fraction(rng, 4))
        return Var(rng.randrange(nvars))
    if r < 0.6:
        return Add(rand_term(rng, depth - 1, nvars, const_bias),
                   rand_term(rng, depth - 1, nvars, const_bias))
    if r < 0.85:
        return Mul(rand_term(rng, depth - 1, nvars, const_bias),
                   rand_term(rng, depth - 1, nvars, const_bias))
    return Opp(rand_term(rng, depth - 1, nvars, const_bias))


def rand_term_with_inv(rng: random.Random, depth: int, nvars: int) -> Term:
    r = rng.random()
    if depth == 0 or r < 0.3:
        if rng.random() < 0.5 or nvars == 0:
            return Const(rand_fraction(rng, 4))
        return Var(rng.randrange(nvars))
    if r < 0.5:
        return Add(rand_term_with_inv(rng, depth - 1, nvars),
                   rand_term_with_inv(rng, depth - 1, nvars))
    if r < 0.7:
        return Mul(rand_term_with_inv(rng, depth - 1, nvars),
                   rand_term_with_inv(rng, depth - 1, nvars))
    if r < 0.85:
        return Opp(rand_term_with_inv(rng, depth - 1, nvars))
    return Inv(rand_term_with_inv(rng, depth - 1, nvars))


def rand_polyf(rng: random.Random, max_degree: int, nvars: int,
               const_bias: float = 0.5) -> tuple[Term, ...]:
    degree = rng.randrange(max_degree + 1)
    return tuple(rand_term(rng, 1, nvars, const_bias) for _ in range(degree + 1))


def rand_qf_formula(rng: random.Random, depth: int, nvars: int,
                    with_inv: bool = False) -> Formula:
    mk_term = rand_term_with_inv if with_inv else (
        lambda g, d, n: rand_term(g, d, n, 0.5)
    )
    r = rng.random()
    if depth == 0 or r < 0.35:
        choice = rng.random()
        if choice < 0.1:
            return Bool(rng.random() < 0.5)
        left = mk_term(rng, 1, nvars)
        right = mk_term(rng, 1, nvars)
        if choice < 0.4:
            return Equal(left, right)
        if choice < 0.7:
            return Lt(left, right)
        return Le(left, right)
    if r < 0.55:
        return And(rand_qf_formula(rng, depth - 1, nvars, with_inv),
                   rand_qf_formula(rng, depth - 1, nvars, with_inv))
    if r < 0.75:
        return Or(rand_qf_formula(rng, depth - 1, nvars, with_inv),
                  rand_qf_formula(rng, depth - 1, nvars, with_inv))
    if r < 0.9:
        return Not(rand_qf_formula(rng, depth - 1, nvars, with_inv))
    return Implies(rand_qf_formula(rng, depth - 1, nvars, with_inv),
                   rand_qf_formula(rng, depth - 1, nvars, with_inv))


def rand_formula(rng: random.Random, depth: int, nvars: int) -> Formula:
    """Random formula possibly containing quantifiers."""
    if depth > 0 and rng.random() < 0.3:
        body = rand_formula(rng, depth - 1, nvars + 1)
        binder = Exists if rng.random() < 0.5 else Forall
        return binder(rng.randrange(nvars + 1), body)
    return rand_qf_formula(rng, depth, max(nvars, 1))


def rand_env(rng: random.Random, nvars: int, bound: int = 5) -> list[Fraction]:
    return [rand_fraction(rng, bound) for _ in range(nvars)]


def ground_polyf(rng: random.Random, size: int) -> tuple[Term, ...]:
    return tuple(Const(Fraction(rng.randint(-4, 4))) for _ in range(size))


def sym_polyf(rng: random.Random, size: int, nvars: int) -> tuple[Term, ...]:
    return tuple(rand_term(rng, 1, nvars, 0.5) for _ in range(size))


def mono_polyf(rng: random.Random, size: int, nvars: int) -> tuple[Term, ...]:
    """Coefficients that are zero or one monomial, such as a^2 or -2*a*b."""
    coeffs = []
    for _ in range(size):
        t: Term = Const(Fraction(rng.choice([0, 1, 1, -1, 2, -3])))
        for _ in range(rng.randint(1, 3)):
            t = Mul(t, Var(rng.randrange(nvars)))
        coeffs.append(t)
    return tuple(coeffs)


# -- commuting-square checks for the lifted (symbolic) operations ---------
#
# Each check builds the symbolic formula with a continuation that records,
# per branch, whether the received value matches the direct computation
# under the sampled environment, then evaluates the formula there: the
# guards select exactly the branch consistent with the environment.


def check_lcoef_square(env, p) -> bool:
    from tarski.formula import Bool, eval_term, qf_eval
    from tarski.lift import eval_poly, lcoef_cps

    expected = eval_poly(env, p).lc
    return qf_eval(env, lcoef_cps(p, lambda t: Bool(eval_term(env, t) == expected)))


def check_size_square(env, p) -> bool:
    from tarski.formula import Bool, qf_eval
    from tarski.lift import eval_poly, size_cps

    expected = eval_poly(env, p).size
    return qf_eval(env, size_cps(p, lambda n: Bool(n == expected)))


def check_pseudo_divmod_square(env, p, q) -> bool:
    from tarski.formula import Bool, eval_term, qf_eval
    from tarski.lift import eval_poly, pseudo_divmod_cps

    pv, qv = eval_poly(env, p), eval_poly(env, q)

    def k(scalp, quot, rem):
        s = eval_term(env, scalp)
        quot_v, rem_v = eval_poly(env, quot), eval_poly(env, rem)
        ok = (
            pv.scale(s) == quot_v * qv + rem_v
            and (qv.is_zero or rem_v.is_zero or rem_v.size < qv.size)
            and s > 0
        )
        return Bool(ok)

    return qf_eval(env, pseudo_divmod_cps(p, q, k))


def check_sremp_square(env, p, q) -> bool:
    from tarski.formula import Bool, qf_eval
    from tarski.lift import eval_poly, sremp_cps
    from tarski.sturm import sremp

    exact = sremp(eval_poly(env, p), eval_poly(env, q))

    def k(seq):
        got = [eval_poly(env, e) for e in seq]
        if len(got) != len(exact):
            return Bool(False)
        for g, e in zip(got, exact):
            # each element must be a positive rational multiple of the
            # exact remainder, so all sign information is preserved
            if g.degree != e.degree:
                return Bool(False)
            if g.is_zero:
                continue
            c = g.lc / e.lc
            if c <= 0 or g != e.scale(c):
                return Bool(False)
        return Bool(True)

    return qf_eval(env, sremp_cps(p, q, k))


def check_var_at_inf_square(env, sp, direction) -> bool:
    from tarski.formula import Bool, qf_eval
    from tarski.lift import eval_poly, var_at_inf_cps
    from tarski.sturm import var_at_inf

    expected = var_at_inf([eval_poly(env, e) for e in sp], direction)
    return qf_eval(env, var_at_inf_cps(sp, direction, lambda n: Bool(n == expected)))


def check_var_sremp_inf_square(env, p, q) -> bool:
    from tarski.formula import Bool, qf_eval
    from tarski.lift import eval_poly, var_sremp_inf_cps
    from tarski.sturm import var_sremp_inf

    pv, qv = eval_poly(env, p), eval_poly(env, q)
    expected = 0 if pv.is_zero else var_sremp_inf(pv, qv)
    return qf_eval(env, var_sremp_inf_cps(p, q, lambda n: Bool(n == expected)))


def check_monic_square(env, p) -> bool:
    from tarski.formula import Bool, qf_eval
    from tarski.lift import eval_poly, monic_cps

    pv = eval_poly(env, p)

    def k(m):
        mv = eval_poly(env, m)
        if pv.size < 2:
            return Bool(mv == pv)
        return Bool(mv == pv.monic_transform()[0])

    return qf_eval(env, monic_cps(p, k))


def check_decF_square(env, p, sq) -> bool:
    from tarski.formula import qf_eval
    from tarski.lift import dec, decF, eval_poly

    f = decF(p, sq)
    direct = dec(eval_poly(env, p), [eval_poly(env, q) for q in sq])
    return qf_eval(env, f) == direct


def check_decF_strict_square(env, sq) -> bool:
    from tarski.formula import qf_eval
    from tarski.lift import dec_strict, decF_strict, eval_poly

    f = decF_strict(sq)
    return qf_eval(env, f) == dec_strict([eval_poly(env, q) for q in sq])
