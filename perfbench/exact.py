"""Exact reference arithmetic for the benchmark's answer checks.

Nothing here imports tarski: the references must not share code with the
paths they check.  Real roots are rationals or pure surds s*sqrt(k) with
k > 0 rational and not a square, so every comparison and every sign of a
rational polynomial at a root is decided exactly through a + b*sqrt(k).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence

Q = Fraction


def sign(x) -> int:
    return (x > 0) - (x < 0)


def is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def fmt(q: Fraction) -> str:
    """Rational literal for formula text; negative values parenthesized."""
    s = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return f"({s})" if q < 0 else s


class Root:
    """A real number that is rational, or s*sqrt(k) for a non-square k > 0."""

    __slots__ = ("q", "s", "k")

    def __init__(self, q: Optional[Fraction] = None, s: int = 0, k: Fraction = Q(0)):
        if q is None and (s not in (-1, 1) or k <= 0 or is_square(k)):
            raise ValueError("a surd root needs a sign and a positive non-square k")
        self.q, self.s, self.k = q, s, k

    def __repr__(self) -> str:
        return str(self.q) if self.q is not None else f"{'-' if self.s < 0 else ''}sqrt({self.k})"

    def cmp_q(self, c: Fraction) -> int:
        """sign(self - c)."""
        if self.q is not None:
            return sign(self.q - c)
        if self.s > 0:
            return 1 if c < 0 else sign(self.k - c * c)
        return -1 if c > 0 else sign(c * c - self.k)

    def cmp(self, other: "Root") -> int:
        """sign(self - other)."""
        if other.q is not None:
            return self.cmp_q(other.q)
        if self.q is not None:
            return -other.cmp_q(self.q)
        if self.s != other.s:
            return self.s
        return self.s * sign(self.k - other.k)

    def sign_of(self, coeffs: Sequence[Fraction]) -> int:
        """Sign of the polynomial (coefficients lowest degree first) here."""
        if self.q is not None:
            acc = Q(0)
            for c in reversed(coeffs):
                acc = acc * self.q + c
            return sign(acc)
        # (s*sqrt(k))^j = s^j * k^(j//2) * sqrt(k)^(j%2)
        a = b = Q(0)
        for j, c in enumerate(coeffs):
            term = c * (self.s ** j) * self.k ** (j // 2)
            if j % 2:
                b += term
            else:
                a += term
        sa, sb = sign(a), sign(b)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        return sa * sign(a * a - b * b * self.k)


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class KnownPoly:
    """A polynomial built from known factors: lc * prod (x - r)^m * prod (x^2 - k)."""

    def __init__(self, lc: Fraction, rational_roots: dict, ks: Sequence[Fraction]):
        if any(is_square(k) for k in ks) or len(set(ks)) != len(ks):
            raise ValueError("quadratic factors need distinct non-square k")
        self.lc = lc
        self.rational_roots = dict(rational_roots)
        self.ks = list(ks)
        coeffs = [lc]
        for r, m in self.rational_roots.items():
            for _ in range(m):
                coeffs = poly_mul(coeffs, [-r, Q(1)])
        for k in self.ks:
            coeffs = poly_mul(coeffs, [-k, Q(0), Q(1)])
        self.coeffs = coeffs

    def real_roots(self) -> list[tuple[Root, int]]:
        """Distinct real roots with multiplicities, in increasing order."""
        roots = [(Root(q=r), m) for r, m in self.rational_roots.items()]
        for k in self.ks:
            if k > 0:
                roots += [(Root(s=1, k=k), 1), (Root(s=-1, k=k), 1)]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if roots[j][0].cmp(roots[i][0]) < 0:
                    roots[i], roots[j] = roots[j], roots[i]
        return roots

    def sign_between(self, left: Optional[Root], right: Optional[Root]) -> int:
        """Sign of the polynomial on an open cell free of its roots, given
        by the cell's end points (None for an infinite end)."""
        s = sign(self.lc)
        for root, m in self.real_roots():
            # Every root lies at or left of the cell's left end, or at or
            # right of its right end; x - root is positive on the cell iff left.
            is_left = left is not None and root.cmp(left) <= 0
            if not is_left and m % 2:
                s = -s
        return s


# -- quantifier-free output formulas -------------------------------------

_TOKEN = re.compile(r"\s*(\d+\.\d+|\.\d+|\d+|[A-Za-z_][A-Za-z0-9_']*|->|/\\|\\/|<=|>=|!=|[~=<>+\-*/^()])")


_FORMULA_TOKENS = frozenset(("=", "!=", "<", "<=", ">", ">=", "/\\", "\\/", "->", "~", "true", "false"))


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unexpected character at column {pos + 1}")
        out.append(m.group(1))
        pos = m.end()
    return out


class FormulaStats:
    """Evaluate a quantifier-free formula in the printed syntax at several
    points at once, and count its formula nodes and distinct atoms.

    Values are tuples with one entry per point.  The grammar is the
    program's documented concrete syntax; division follows 1/0 = 0.
    """

    def __init__(self, text: str, points: Sequence[dict]):
        self.toks = _tokenize(text)
        self.pos = 0
        # Matching parentheses and a prefix count of formula-level tokens
        # tell a parenthesized formula from a parenthesized term in O(1).
        self.match: dict[int, int] = {}
        self.fcount = [0]
        opened = []
        for i, tok in enumerate(self.toks):
            if tok == "(":
                opened.append(i)
            elif tok == ")":
                if not opened:
                    raise ValueError(f"unbalanced ')' at token {i}")
                self.match[opened.pop()] = i
            self.fcount.append(self.fcount[-1] + (tok in _FORMULA_TOKENS))
        if opened:
            raise ValueError("unbalanced '('")
        self.points = list(points)
        self.nodes = 0
        self.atoms: set[tuple[str, ...]] = set()
        self.values = self._implies()
        if self.pos != len(self.toks):
            raise ValueError(f"trailing input at token {self.pos}")

    def _is_formula_group(self, i: int) -> bool:
        return self.fcount[self.match[i]] > self.fcount[i + 1]

    def _peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self, tok: Optional[str] = None) -> str:
        t = self._peek()
        if t is None or (tok is not None and t != tok):
            raise ValueError(f"expected {tok or 'a token'} at token {self.pos}, got {t!r}")
        self.pos += 1
        return t

    def _binary(self, sub, op, fn):
        left = sub()
        while self._peek() == op:
            self._take()
            right = sub()
            self.nodes += 1
            left = tuple(fn(a, b) for a, b in zip(left, right))
        return left

    def _implies(self):
        left = self._or()
        if self._peek() == "->":
            self._take()
            right = self._implies()
            self.nodes += 1
            return tuple((not a) or b for a, b in zip(left, right))
        return left

    def _or(self):
        return self._binary(self._and, "\\/", lambda a, b: a or b)

    def _and(self):
        return self._binary(self._not, "/\\", lambda a, b: a and b)

    def _not(self):
        if self._peek() == "~":
            self._take()
            self.nodes += 1
            return tuple(not v for v in self._not())
        return self._atom()

    def _atom(self):
        t = self._peek()
        if t in ("true", "false"):
            self._take()
            self.nodes += 1
            return (t == "true",) * len(self.points)
        if t in ("exists", "forall"):
            raise ValueError("quantifier in a quantifier-free output")
        if t == "(" and self._is_formula_group(self.pos):
            self._take("(")
            inner = self._implies()
            self._take(")")
            return inner
        start = self.pos
        left = self._term()
        op = self._take()
        right = self._term()
        cmp = {
            "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        }.get(op)
        if cmp is None:
            raise ValueError(f"expected a comparison, got {op!r}")
        self.nodes += 1
        self.atoms.add(tuple(self.toks[start:self.pos]))
        return tuple(cmp(a, b) for a, b in zip(left, right))

    def _term(self):
        left = self._product()
        while self._peek() in ("+", "-"):
            op = self._take()
            right = self._product()
            left = tuple(a + b if op == "+" else a - b for a, b in zip(left, right))
        return left

    def _product(self):
        left = self._unary()
        while self._peek() in ("*", "/"):
            op = self._take()
            right = self._unary()
            if op == "*":
                left = tuple(a * b for a, b in zip(left, right))
            else:
                left = tuple(a / b if b else Q(0) for a, b in zip(left, right))
        return left

    def _unary(self):
        if self._peek() == "-":
            self._take()
            return tuple(-v for v in self._unary())
        return self._power()

    def _power(self):
        base = self._factor()
        if self._peek() == "^":
            self._take()
            exp = self._take()
            if not exp.isdigit():
                raise ValueError("exponent must be a natural number")
            base = tuple(v ** int(exp) for v in base)
        return base

    def _factor(self):
        t = self._take()
        if t == "(":
            v = self._term()
            self._take(")")
            return v
        if t[0].isdigit() or t[0] == ".":
            return (Q(t),) * len(self.points)
        if t[0].isalpha() or t[0] == "_":
            try:
                return tuple(Q(p[t]) for p in self.points)
            except KeyError:
                raise ValueError(f"unknown variable {t!r}") from None
        raise ValueError(f"unexpected token {t!r}")
