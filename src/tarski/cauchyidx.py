"""Sign at the right of a point, jumps and the Cauchy index.

``cind`` is the semantic oracle against which remainder-sequence counting
is checked.  It is deliberately restricted to denominators whose roots in
the interval are all rational: jumps at irrational poles would need
algebraic-number arithmetic, which is out of scope.  Test generators build
denominators from rational linear factors so the restriction never binds.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .rational import sgr


def sgp_right(p: Poly, x: Fraction) -> int:
    """Sign of p immediately to the right of x: the sign of the first
    derivative of p (including p itself) not vanishing at x; 0 for p = 0."""
    while not p.is_zero:
        v = p.eval(x)
        if v != 0:
            return sgr(v)
        p = p.deriv()
    return 0


def jump(q: Poly, p: Poly, x: Fraction) -> int:
    """Cauchy-index contribution of q/p at the pole x.

    Zero when q = 0 or mu_x(p) - mu_x(q) is non-positive or even (natural
    truncated subtraction); otherwise +-1 with the sign of q*p just right
    of x.
    """
    if p.is_zero:
        raise ValueError("jump with zero denominator")
    if q.is_zero:
        return 0
    diff = p.mu(x) - q.mu(x)
    if diff <= 0 or diff % 2 == 0:
        return 0
    return sgp_right(q * p, x)


def _rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial (without multiplicity)."""
    if p.degree < 1:
        return []
    zs = list(p.num)
    roots: list[Fraction] = []
    if zs[0] == 0:
        roots.append(Fraction(0))
        while zs and zs[0] == 0:
            zs.pop(0)
    if len(zs) <= 1:
        return roots

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return out

    for num in divisors(zs[0]):
        for den in divisors(zs[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and p.eval(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def cind(a: Fraction, b: Fraction, q: Poly, p: Poly) -> int:
    """Sum of jump(q, p, x) over the roots x of p inside ]a, b[.

    Requires a < b and every root of p in ]a, b[ to be rational; raises
    "irrational poles" otherwise (detected by Sturm counting the residual
    after dividing the rational roots out).
    """
    if p.is_zero:
        raise ValueError("cind with zero denominator")
    if a >= b:
        raise ValueError("cind requires a < b")
    inside = [x for x in _rational_roots(p) if a < x < b]
    residual = p
    for x in inside:
        lin = Poly([-x, Fraction(1)])
        while residual % lin == Poly.zero():
            residual = residual // lin
    from .isolate import count_roots
    from .intervals import open_

    if residual.degree >= 1 and count_roots(residual, open_(a, b)) > 0:
        raise ValueError("irrational poles")
    return sum(jump(q, p, x) for x in inside)
