"""Univariate polynomials over the rationals, dense and always normalized.

A polynomial is stored as a tuple ``num`` of integer numerators, lowest
degree first, over one positive common denominator ``den``; its
coefficients are ``num[i] / den``.  The form is normal: a nonzero
polynomial never carries a trailing zero, and gcd(den, *num) == 1, so the
zero polynomial is ``num == ()`` with ``den == 1``.  Equal polynomials
therefore have equal fields, and equality and hashing stay structural.

Fractions are the boundary type: ``coeffs``, ``lc``, indexing, iteration,
``eval`` and the scalar arguments and results of the methods are
``fractions.Fraction`` values.  Inside, every operation runs on ``int``
and normalizes its result once: sums and products over a common
denominator, division as fraction-free pseudo-division, and evaluation at
a/b as homogenized Horner with one Fraction built at the end.

``size`` is the length of the coefficient sequence, so size == 0 exactly
for the zero polynomial and size == degree + 1 otherwise; this convention
avoids option-typed degrees throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Iterator


def _normal(num: list[int], den: int) -> "Poly":
    """The Poly num/den in normal form: trailing zeros dropped, den > 0
    and gcd(den, *num) == 1.  Takes ownership of the list."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [n // g for n in num]
            den //= g
    p = object.__new__(Poly)
    p._num = tuple(num)
    p._den = den
    return p


class Poly:
    """Immutable dense univariate polynomial over the rationals: integer
    numerators over one common denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Fraction] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so the pair is already normal.
        den = lcm(*(c.denominator for c in cs)) if cs else 1
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: Fraction) -> "Poly":
        return Poly([Fraction(c)])

    @staticmethod
    def x() -> "Poly":
        return Poly([Fraction(0), Fraction(1)])

    @staticmethod
    def from_roots(roots: Iterable[Fraction]) -> "Poly":
        """Monic product of (X - r) over the given roots (with repetition)."""
        p = Poly.const(Fraction(1))
        for r in roots:
            p = p * Poly([-Fraction(r), Fraction(1)])
        return p

    # -- basic structure ---------------------------------------------------

    @property
    def num(self) -> tuple[int, ...]:
        """Integer numerators, lowest degree first."""
        return self._num

    @property
    def den(self) -> int:
        """The positive common denominator, coprime with all of num."""
        return self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in lowest terms, lowest degree first."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    @property
    def size(self) -> int:
        return len(self._num)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def lc(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return Fraction(self._num[-1], self._den) if self._num else Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self._num[i], self._den) if 0 <= i < len(self._num) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def _over_common_den(self, other: "Poly") -> tuple[Iterator[tuple[int, int]], int]:
        """Pairs of numerators of equal degree, both over lcm(den,
        other.den) and padded with zeros, and that denominator."""
        a, b = self._num, other._num
        da, db = self._den, other._den
        if da != db:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            a, b, da = [n * fa for n in a], [n * fb for n in b], den
        return zip_longest(a, b, fillvalue=0), da

    def __add__(self, other: "Poly") -> "Poly":
        pairs, den = self._over_common_den(other)
        return _normal([x + y for x, y in pairs], den)

    def __sub__(self, other: "Poly") -> "Poly":
        pairs, den = self._over_common_den(other)
        return _normal([x - y for x, y in pairs], den)

    def __neg__(self) -> "Poly":
        p = object.__new__(Poly)
        p._num = tuple(-n for n in self._num)
        p._den = self._den
        return p

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._num, other._num
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _normal(out, self._den * other._den)

    def scale(self, c: Fraction) -> "Poly":
        n = c.numerator
        return _normal([n * a for a in self._num], self._den * c.denominator)

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k."""
        if self.is_zero:
            return self
        return _normal([0] * k + list(self._num), self._den)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        result = Poly.const(Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation and derivative ----------------------------------------

    def eval(self, x: Fraction) -> Fraction:
        """Value at x = a/b by homogenized Horner, sum of num[i] * a^i *
        b^(d-i), over den * b^d; the zero polynomial evaluates to 0."""
        num = self._num
        if not num:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        acc = num[-1]
        bpow = 1
        for n in reversed(num[:-1]):
            bpow *= b
            acc = acc * a + n * bpow
        return Fraction(acc, self._den * bpow)

    def deriv(self) -> "Poly":
        return _normal([i * n for i, n in enumerate(self._num)][1:], self._den)

    # -- division ----------------------------------------------------------

    def divmod(self, q: "Poly") -> tuple["Poly", "Poly"]:
        """Exact Euclidean division over the field: self = quot*q + rem,
        rem = 0 or size(rem) < size(q).

        Runs as fraction-free pseudo-division of the numerators A and B:
        eliminating a leading term c scales by lc(B) / gcd(lc(B), c), and s
        is the product of those factors, so s * A = Q * B + R.  Then rem =
        R / (den * s) and quot = Q * q.den / (den * s).  A zero leading
        term is dropped with no scaling step."""
        b = q._num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(b) - 1
        lcq = b[-1]
        rem = list(self._num)
        quot = [0] * max(0, len(rem) - dq)
        s = 1
        while len(rem) > dq:
            c = rem.pop()
            if not c:
                continue
            k = len(rem) - dq
            g = gcd(c, lcq)
            m, c = lcq // g, c // g
            if m != 1:
                s *= m
                rem = [m * r for r in rem]
                for j in range(k + 1, len(quot)):
                    quot[j] *= m
            quot[k] = c
            for i in range(dq):
                rem[k + i] -= c * b[i]
        den = self._den * s
        if q._den != 1:
            quot = [v * q._den for v in quot]
        return _normal(quot, den), _normal(rem, den)

    def __floordiv__(self, q: "Poly") -> "Poly":
        return self.divmod(q)[0]

    def __mod__(self, q: "Poly") -> "Poly":
        return self.divmod(q)[1]

    def pseudo_divmod(self, q: "Poly") -> "PseudoDivResult":
        """Pseudo-division: scalp * self = quot * q + rem, exactly, with
        scalp = lc(q) ** max(0, size(self) - size(q) + 1)."""
        if q.is_zero:
            raise ZeroDivisionError("polynomial pseudo-division by zero")
        d = max(0, self.size - q.size + 1)
        scalp = q.lc ** d
        quot, rem = self.scale(scalp).divmod(q)
        return PseudoDivResult(scalp, quot, rem)

    # -- gcd and square-free structure ------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return _normal(list(self._num), self._num[-1])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def squarefree_part(self) -> "Poly":
        """self / gcd(self, self'), made monic; same root set, all simple."""
        if self.is_zero:
            raise ValueError("squarefree_part of the zero polynomial")
        g = self.gcd(self.deriv())
        return (self // g).monic()

    def squarefree_decomposition(self) -> list[tuple["Poly", int]]:
        """Yun decomposition: pairs (f_i, i) with self = lc * prod f_i^i,
        the f_i monic, square-free, pairwise coprime and non-constant."""
        if self.is_zero:
            raise ValueError("decomposition of the zero polynomial")
        p = self.monic()
        if p.degree < 1:
            return []
        out: list[tuple[Poly, int]] = []
        g = p.gcd(p.deriv())
        c = p // g
        d = p.deriv() // g - c.deriv()
        i = 1
        while c.degree >= 1:
            f = c.gcd(d)
            if f.degree >= 1:
                out.append((f.monic(), i))
            c, d = c // f, d // f - (c // f).deriv()
            i += 1
        return out

    def mu(self, x: Fraction) -> int:
        """Multiplicity of x as a root; 0 when x is not a root."""
        if self.is_zero:
            raise ValueError("multiplicity in the zero polynomial")
        lin = Poly([-Fraction(x), Fraction(1)])
        k = 0
        p = self
        while True:
            quot, rem = p.divmod(lin)
            if not rem.is_zero:
                return k
            k += 1
            p = quot

    # -- bounds and normal forms ------------------------------------------

    def cauchy_bound(self) -> Fraction:
        """Sum of |coefficients| divided by |leading coefficient|.

        Every real root x satisfies |x| < the returned value (strictly,
        since the sum includes the leading term itself).
        """
        if self.is_zero:
            raise ValueError("Cauchy bound of the zero polynomial")
        return Fraction(sum(abs(n) for n in self._num), abs(self._num[-1]))

    def monic_transform(self) -> tuple["Poly", Fraction]:
        """Monic change of variable: returns (s, lead) with s monic of the
        same size and s(lead*X) = lead^(size-2) * self(X); x0 is a root of
        self iff lead*x0 is a root of s."""
        if self.size < 2:
            raise ValueError("monic_transform requires a non-constant polynomial")
        # coefficient i of s is c_i * lead^(n-1-i) = num[i] * lc^(n-1-i) * den^i / den^n
        num, den = self._num, self._den
        n = len(num) - 1
        lc = num[-1]
        out = [num[i] * lc ** (n - 1 - i) * den ** i for i in range(n)]
        out.append(den ** n)
        return _normal(out, den ** n), self.lc


@dataclass(frozen=True)
class PseudoDivResult:
    scalp: Fraction
    quot: Poly
    rem: Poly
