"""Sign-change counting, signed remainder sequences and Tarski queries.

The signed remainder sequence iterates R_{i+2} = -(R_i mod R_{i+1}) with
exact field division; under that convention the difference of sign-change
counts at two points equals the Cauchy index of the second argument over
the first (the Sturm--Tarski correspondence validated in the tests).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .poly import Poly
from .rational import sgr

NEG_INF = -1
POS_INF = 1


def var(values: Sequence[Fraction]) -> int:
    """Number of sign alternations after deleting all zero entries."""
    signs = [sgr(v) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sremp(p: Poly, q: Poly) -> list[Poly]:
    """Signed remainder sequence starting from p, q.

    Zero leading entries are dropped and the sequence stops before the
    first zero remainder; it is empty when p is zero.  From index 1 on,
    degrees strictly decrease.
    """
    if p.is_zero:
        return []
    if q.is_zero:
        return [p]
    seq = [p, q]
    while True:
        r = -(seq[-2] % seq[-1])
        if r.is_zero:
            return seq
        seq.append(r)


def varp(a: Optional[Fraction], b: Optional[Fraction], sp: Sequence[Poly]) -> int:
    """var of the evaluations at a minus var of the evaluations at b; a
    None end reads as -oo for a and +oo for b, through the signs at infinity."""
    va = var_at_inf(sp, NEG_INF) if a is None else var([p.eval(a) for p in sp])
    vb = var_at_inf(sp, POS_INF) if b is None else var([p.eval(b) for p in sp])
    return va - vb


def var_sremp(a: Fraction, b: Fraction, p: Poly, q: Poly) -> int:
    """varp(a, b, sremp(p, q)); equals the Cauchy index cind(a, b, q, p).

    Raises if a or b is a root of any element of the sequence, which is
    the precondition of the Sturm--Tarski correspondence.
    """
    seq = sremp(p, q)
    for elem in seq:
        if elem.eval(a) == 0 or elem.eval(b) == 0:
            raise ValueError("endpoint is a root of a remainder-sequence element")
    return varp(a, b, seq)


def sign_at_inf(p: Poly, direction: int) -> int:
    """Sign of p beyond all its roots: sgr(lc) at +oo, times (-1)^deg at -oo."""
    s = sgr(p.lc)
    if direction == NEG_INF and p.size % 2 == 0:
        s = -s
    return s


def var_signs_at_inf(lead_signs: Sequence[int], sizes: Sequence[int], direction: int) -> int:
    """Sign changes at the chosen infinity of polynomials given by the
    signs of their leading coefficients and their sizes (degree + 1): at
    -oo an even size flips the sign.  Zero signs are skipped."""
    if direction not in (NEG_INF, POS_INF):
        raise ValueError("direction must be NEG_INF or POS_INF")
    flip = direction == NEG_INF
    return var([-s if flip and size % 2 == 0 else s for s, size in zip(lead_signs, sizes)])


def var_at_inf(sp: Sequence[Poly], direction: int) -> int:
    """Sign changes of the signs-at-infinity of the sequence elements."""
    return var_signs_at_inf([sgr(p.lc) for p in sp], [p.size for p in sp], direction)


def var_sremp_inf(p: Poly, q: Poly) -> int:
    """var_sremp over the whole real line, evaluated at +-oo through the
    leading coefficients."""
    return varp(None, None, sremp(p, q))


def tarski_query(p: Poly, q: Poly) -> int:
    """Sum of sgr(q(x)) over the real roots x of p (without multiplicity)."""
    if p.is_zero:
        raise ValueError("Tarski query over the zero polynomial")
    return var_sremp_inf(p, p.deriv() * q)


def nonvanishing_endpoints(p: Poly, q: Poly) -> Fraction:
    """A bound b beyond every Cauchy bound in sremp(p, q) such that no
    sequence element vanishes at b or -b."""
    if p.is_zero:
        raise ValueError("no remainder sequence for the zero polynomial")
    seq = sremp(p, q)
    maxbound = max(elem.cauchy_bound() for elem in seq)
    b = Fraction(int(maxbound) + 1)
    while any(elem.eval(b) == 0 or elem.eval(-b) == 0 for elem in seq):
        b += 1
    return b
