"""Exhaustive ordered real-root isolation with rational interval endpoints.

Isolation is bisection driven by Sturm counts, starting from the Cauchy
bound box: the Cauchy bound is a strict bound on root absolute values, so
the open box ]-cb, cb[ contains every root and its endpoints are safe
evaluation points.  Each isolating interval is open, has non-root
endpoints and contains exactly one distinct real root.

Each query reads one remainder sequence: isolation and refinement bisect
on the Sturm chain of the square-free part, and the sign of q at the root
of p in ]a, b[ is the Tarski query varp(a, b, sremp(p, p'q)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, format_interval, open_
from .poly import Poly
from .sturm import NEG_INF, POS_INF, sremp, var, var_at_inf, varp


@dataclass(frozen=True)
class IsolatedRoot:
    interval: Interval
    multiplicity: int

    def __str__(self) -> str:
        return f"{format_interval(self.interval)} (multiplicity {self.multiplicity})"


def _var_end(chain: list[Poly], endpoint: Optional[Fraction], direction: int) -> int:
    if endpoint is None:
        return var_at_inf(chain, direction)
    return var([p.eval(endpoint) for p in chain])


def _count_open(g: Poly, chain: list[Poly], a: Optional[Fraction], b: Optional[Fraction]) -> int:
    """Distinct roots of square-free g in ]a, b[ (None meaning -+oo);
    requires finite endpoints to be non-roots of g."""
    if a is not None and b is not None and a >= b:
        return 0
    return _var_end(chain, a, NEG_INF) - _var_end(chain, b, POS_INF)


def count_roots(p: Poly, i: Interval) -> int:
    """Number of distinct real roots of p inside the interval.

    Finite endpoints that happen to be roots are handled by stripping the
    corresponding linear factor before Sturm counting, then adding the
    endpoint back when its bound is closed.
    """
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    g = p.squarefree_part()
    a = None if i.lo.infinite else i.lo.value
    b = None if i.hi.infinite else i.hi.value
    extra = 0
    for value, bound in ((a, i.lo), (b, i.hi)):
        if value is not None and g.eval(value) == 0:
            g = g // Poly([-value, Fraction(1)])
            if bound.closed:
                extra += 1
    if a is not None and b is not None and a > b:
        return 0
    if a is not None and b is not None and a == b:
        return extra if (i.lo.closed and i.hi.closed) else 0
    if g.degree < 1:
        return extra
    chain = sremp(g, g.deriv())
    return _count_open(g, chain, a, b) + extra


def _nonroot_cut(g: Poly, a: Fraction, b: Fraction) -> Fraction:
    """A point strictly inside ]a, b[ that is not a root of g."""
    m = (a + b) / 2
    step = (b - a) / 4
    while g.eval(m) == 0:
        m += step
        step /= 2
    return m


def isolate_roots(p: Poly) -> list[IsolatedRoot]:
    """Pairwise-disjoint sorted open intervals, one distinct real root
    each, covering every real root of p, with multiplicities."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return []
    g = p.squarefree_part()
    cb = p.cauchy_bound()
    chain = sremp(g, g.deriv())
    total = _count_open(g, chain, -cb, cb)
    out: list[Interval] = []
    stack = [(-cb, cb, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append(open_(a, b))
            continue
        m = _nonroot_cut(g, a, b)
        left = _count_open(g, chain, a, m)
        stack.append((a, m, left))
        stack.append((m, b, n - left))
    out.sort(key=lambda i: i.lo.value)

    # The Yun factor holding a root changes sign across its interval: each
    # factor is square-free, with no root at the ends and at most one inside.
    decomposition = p.squarefree_decomposition()
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
    chain = sremp(g, g.deriv())
    a, b = iso.lo.value, iso.hi.value
    for r in (a, b):
        if g.eval(r) == 0:
            # The isolated root sits on a closed endpoint: box it tightly.
            d = eps / 2
            while g.eval(r - d) == 0 or g.eval(r + d) == 0 or _count_open(g, chain, r - d, r + d) != 1:
                d /= 2
            return open_(r - d, r + d)
    while b - a > eps:
        m = _nonroot_cut(g, a, b)
        if _count_open(g, chain, a, m) == 1:
            b = m
        else:
            a = m
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
    h = p.squarefree_part() if p.degree >= 1 else p
    lin = Poly([-x, Fraction(1)])
    while h.degree >= 1 and h.eval(x) == 0:
        h = h // lin
    y = x + 1
    while h.degree >= 1:
        inside = count_roots(h, open_(x, y)) + (1 if h.eval(y) == 0 else 0)
        if inside == 0:
            break
        y = x + (y - x) / 2
    return y
