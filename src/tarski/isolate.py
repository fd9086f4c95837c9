"""Exhaustive ordered real-root isolation with rational interval endpoints.

Isolation is bisection driven by Sturm counts, starting from the Cauchy
bound box: the Cauchy bound is a strict bound on root absolute values, so
the open box ]-cb, cb[ contains every root and its endpoints are safe
evaluation points.  Each isolating interval is open, has non-root
endpoints and contains exactly one distinct real root.

A root count is Sturm's count, the Tarski query of 1 on sremp(p, p'): it
needs no square-free part while the ends are not roots of p.  Isolation
bisects on the Sturm chain of the square-free part, refinement by the sign
of the square-free part, which changes once across each root, and the sign
of q at the root of p in ]a, b[ is the Tarski query varp(a, b, sremp(p, p'q)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .intervals import Interval, closed, finite, format_interval, open_
from .poly import Poly
from .rational import sgr
from .sturm import sremp, varp


@dataclass(frozen=True)
class IsolatedRoot:
    interval: Interval
    multiplicity: int

    def __str__(self) -> str:
        return f"{format_interval(self.interval)} (multiplicity {self.multiplicity})"


def count_roots(p: Poly, i: Interval) -> int:
    """Number of distinct real roots of p inside the interval.

    A finite endpoint that is a root is divided out of p with its full
    multiplicity before Sturm counting, then added back when its bound is
    closed.
    """
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    a = None if i.lo.infinite else i.lo.value
    b = None if i.hi.infinite else i.hi.value
    if a is not None and b is not None and a >= b:
        return int(a == b and i.lo.closed and i.hi.closed and p.eval(a) == 0)
    extra = 0
    for value, bound in ((a, i.lo), (b, i.hi)):
        if value is not None and p.eval(value) == 0:
            lin = Poly([-value, Fraction(1)])
            while p.eval(value) == 0:
                p = p // lin
            if bound.closed:
                extra += 1
    return varp(a, b, sremp(p, p.deriv())) + extra


def _nonroot_cut(g: Poly, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """A point m strictly inside ]a, b[ that is not a root of g, and g(m)."""
    m = (a + b) / 2
    step = (b - a) / 4
    while (value := g.eval(m)) == 0:
        m += step
        step /= 2
    return m, value


def isolate_roots(p: Poly) -> list[IsolatedRoot]:
    """Pairwise-disjoint sorted open intervals, one distinct real root
    each, covering every real root of p, with multiplicities."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return []
    decomposition = p.squarefree_decomposition()
    g = prod((f for f, _ in decomposition), start=Poly.const(Fraction(1)))
    cb = p.cauchy_bound()
    chain = sremp(g, g.deriv())
    out: list[Interval] = []
    stack = [(-cb, cb, varp(-cb, cb, chain))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append(open_(a, b))
            continue
        m, _ = _nonroot_cut(g, a, b)
        left = varp(a, m, chain)
        stack.append((a, m, left))
        stack.append((m, b, n - left))
    out.sort(key=lambda i: i.lo.value)

    # The Yun factor holding a root changes sign across its interval: each
    # factor is square-free, with no root at the ends and at most one inside.
    roots = []
    for iso in out:
        a, b = iso.lo.value, iso.hi.value
        roots.append(IsolatedRoot(iso, next(k for f, k in decomposition if f.eval(a) * f.eval(b) < 0)))
    return roots


def refine(p: Poly, iso: Interval, eps: Fraction) -> Interval:
    """Shrink an isolating interval below width eps by bisection, keeping
    exactly one root inside and roots off the endpoints."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if iso.lo.infinite or iso.hi.infinite:
        raise ValueError("refine requires finite bounds")
    if count_roots(p, iso) != 1:
        raise ValueError("interval does not isolate exactly one root")
    g = p.squarefree_part()
    a, b = iso.lo.value, iso.hi.value
    for r, bound in ((a, iso.lo), (b, iso.hi)):
        if bound.closed and g.eval(r) == 0:
            # The isolated root sits on a closed endpoint: box it tightly.
            d = eps / 2
            while count_roots(p, closed(r - d, r + d)) != 1:
                d /= 2
            return open_(r - d, r + d)
    # g is square-free with one root in ]a, b[, so its sign flips there
    # once; on an open end that is a root, g' gives the sign just inside.
    left = sgr(g.eval(a)) or sgr(g.deriv().eval(a))
    while b - a > eps:
        m, value = _nonroot_cut(g, a, b)
        if sgr(value) == left:
            a = m
        else:
            b = m
    return open_(a, b)


def sign_at_root(p: Poly, iso: Interval, q: Poly) -> int:
    """Sign of q at the unique root of p in the interval, exactly: the
    Tarski query of q on ]a, b[.  Raises ValueError unless the bounds are
    finite non-roots of p with one distinct root of p between them."""
    if iso.lo.infinite or iso.hi.infinite:
        raise ValueError("sign_at_root requires finite bounds")
    a, b = iso.lo.value, iso.hi.value
    if p.eval(a) == 0 or p.eval(b) == 0 or count_roots(p, iso) != 1:
        raise ValueError("interval does not isolate exactly one root of p off its ends")
    return varp(a, b, sremp(p, p.deriv() * q))


def sample_right(p: Poly, x: Fraction) -> Fraction:
    """A point y > x such that p has no root in ]x, y]; the sign of p at y
    is then the sign of p immediately right of x."""
    if p.is_zero:
        raise ValueError("sample_right of the zero polynomial")
    y = x + 1
    while count_roots(p, Interval(finite(x, False), finite(y, True))) > 0:
        y = x + (y - x) / 2
    return y
