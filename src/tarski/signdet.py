"""Sign determination: the 3x3 base matrix, its tensor powers, and the
recovery of sign-condition counts from Tarski queries.

The base matrix links (taq Q, taq Q^2, taq 1) to the counts of roots where
Q is positive, negative or zero.  Its Kronecker powers extend the system
to n constraint polynomials and 3^n queries.  The inverse of a Kronecker
power is the Kronecker power of the inverse, so the system is solved axis
by axis with the 3x3 inverse, in O(n 3^n) operations; the dense matrices
stay as the reference the tests compare against.  The count of the
all-positive sign vector only weighs the 2^n queries with exponents in
{1, 2}^n, so lifted decisions issue just those.  Orderings are fixed once
and for all: sign coordinates enumerate as (+1, -1, 0), exponent
coordinates as (1, 2, 0), and multi-indices are flattened with the head
polynomial as the most significant coordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .poly import Poly
from .rational import sgr
from .sturm import tarski_query

SIGN_ORDER = (1, -1, 0)
EXP_ORDER = (1, 2, 0)

SignVector = tuple[int, ...]
ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class MatrixQ:
    """Dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows * self.cols != len(self.entries):
            raise ValueError("entry count does not match the shape")

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction]]) -> "MatrixQ":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return MatrixQ(r, c, tuple(Fraction(x) for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "MatrixQ":
        return MatrixQ(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(self.entries[i * n:(i + 1) * n]) for i in range(n)]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                factor = m[r][col] * inv
                if factor:
                    for c in range(col, n):
                        m[r][c] -= factor * m[col][c]
        return det


def ctmat1() -> MatrixQ:
    """The 3x3 base sign-determination matrix; entry (sigma, eps) is
    sigma^eps with 0^0 = 1 under the fixed orderings."""
    return MatrixQ.from_rows([[1, 1, 1], [-1, 1, 1], [0, 0, 1]])


def tensor_pow(m: MatrixQ, n: int) -> MatrixQ:
    """n-fold Kronecker power; the 0th power is the 1x1 identity."""
    if n < 0:
        raise ValueError("negative tensor power")
    out = MatrixQ.identity(1)
    for _ in range(n):
        out = _kron(out, m)
    return out


def _kron(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    entries = []
    for i in range(rows):
        ia, ib = divmod(i, b.rows)
        for j in range(cols):
            ja, jb = divmod(j, b.cols)
            entries.append(a.at(ia, ja) * b.at(ib, jb))
    return MatrixQ(rows, cols, tuple(entries))


def sign_vectors(n: int) -> list[SignVector]:
    """All sign vectors of length n in flattening order (head first)."""
    return [tuple(v) for v in itertools.product(SIGN_ORDER, repeat=n)]


def exponent_vectors(n: int) -> list[ExponentVector]:
    """All exponent vectors of length n in flattening order (head first)."""
    return [tuple(v) for v in itertools.product(EXP_ORDER, repeat=n)]


def constraints(z: Sequence[Fraction], sq: Sequence[Poly], ssc: SignVector) -> int:
    """Count of points x in z with sgr(Q_k(x)) == ssc[k] for all k."""
    if len(sq) != len(ssc):
        raise ValueError("sign vector length does not match the polynomial list")
    return sum(
        1 for x in z if all(sgr(q.eval(x)) == s for q, s in zip(sq, ssc))
    )


def tvec(z: Sequence[Fraction], sq: Sequence[Poly]) -> list[int]:
    """Row vector of Tarski-query values over the point list z: the entry
    at exponent vector eps is sum over x of sgr(prod_k Q_k(x)^eps_k)."""
    out = []
    for eps in exponent_vectors(len(sq)):
        total = 0
        for x in z:
            prod = Fraction(1)
            for q, e in zip(sq, eps):
                prod *= q.eval(x) ** e
            total += sgr(prod)
        out.append(total)
    return out


def cvec(z: Sequence[Fraction], sq: Sequence[Poly]) -> list[int]:
    """Row vector of constraint counts, indexed by sign_vectors."""
    return [constraints(z, sq, sv) for sv in sign_vectors(len(sq))]


def solve_tvec(tv: Sequence[int], n: int) -> list[Fraction]:
    """Exact solution cv of cv . M_n = tv (entries in flattening order).

    Along each axis the 3x3 inverse maps the queries (t1, t2, t0) to the
    counts c+ = (t1 + t2)/2, c- = (t2 - t1)/2, c0 = t0 - t2; the factor
    1/2 is deferred to one division by 2^n at the end."""
    size = 3 ** n
    if len(tv) != size:
        raise ValueError(f"expected a vector of length {size}")
    v = list(tv)
    stride = size
    for _ in range(n):
        stride //= 3
        for block in range(0, size, 3 * stride):
            for i in range(block, block + stride):
                t1, t2, t0 = v[i], v[i + stride], v[i + 2 * stride]
                v[i], v[i + stride], v[i + 2 * stride] = t1 + t2, t2 - t1, 2 * (t0 - t2)
    return [Fraction(x) / 2 ** n for x in v]


def solve_counts(tv: Sequence[int], n: int) -> dict[SignVector, int]:
    """Invert the tensor system: recover the count of each sign vector
    from the 3^n Tarski queries.  Raises when the input is inconsistent
    (some solved entry negative or non-integral)."""
    solution = solve_tvec(tv, n)
    counts: dict[SignVector, int] = {}
    for sv, value in zip(sign_vectors(n), solution):
        if value.denominator != 1 or value < 0:
            raise ValueError(f"inconsistent Tarski queries: count {value} at {sv}")
        counts[sv] = int(value)
    return counts


@lru_cache(maxsize=None)
def first_count_weights(n: int) -> tuple[Fraction, ...]:
    """Weights lambda_eps with sum_eps lambda_eps * tv[eps] = count of the
    all-positive sign vector: the first column of the inverse of M_n, which
    is (1/2, 1/2, 0) tensored n times, so 1/2^n at eps in {1, 2}^n and 0
    wherever some exponent is 0."""
    w = Fraction(1, 2 ** n)
    return tuple(Fraction(0) if 0 in eps else w for eps in exponent_vectors(n))


def sign_counts(p: Poly, sq: Sequence[Poly]) -> dict[SignVector, int]:
    """Number of distinct real roots of p realizing each sign vector over
    sq, from one vector of 3^n full-line Tarski queries and one solve."""
    if p.is_zero:
        raise ValueError("sign counting over the zero polynomial")
    prods = [Poly.const(Fraction(1))]
    for q in sq:
        powers = {e: q ** e for e in EXP_ORDER}
        prods = [prod * powers[e] for prod in prods for e in EXP_ORDER]
    return solve_counts([tarski_query(p, prod) for prod in prods], len(sq))


def count_with_signs(p: Poly, sq: Sequence[Poly], target: SignVector) -> int:
    """Number of distinct real roots x of p with sgr(Q_k(x)) == target[k]
    for all k, recovered from full-line Tarski queries."""
    if len(sq) != len(target):
        raise ValueError("sign vector length does not match the polynomial list")
    return sign_counts(p, sq)[tuple(target)]
