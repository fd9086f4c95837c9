"""Concrete syntax: parsing and printing of terms, formulas and polynomials.

Grammar (precedence tightest first): ^, unary -, * and /, + and -,
comparisons, ~, /\\, \\/, ->, quantifiers.  Division parses to Mul with
Inv.  Identifiers map to variable indices in first-occurrence order;
binders introduce or shadow names.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from . import formula as F
from .formula import Formula, Term
from .poly import Poly
from .rational import format_rational

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>->|/\\|\\/|<=|>=|!=|[~=<>+\-*/^().]))"
)

_KEYWORDS = {"exists", "forall", "true", "false"}


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, source position)."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("num") is not None:
            out.append(("num", m.group("num"), m.start()))
        elif m.group("ident") is not None:
            word = m.group("ident")
            out.append((word if word in _KEYWORDS else "ident", word, m.start()))
        else:
            out.append((m.group("op"), m.group("op"), m.start()))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, names: Optional[list[str]] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names: list[str] = list(names or [])

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input", self.tokens[-1][2] if self.tokens else 0)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def var_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        if self.peek() in ("exists", "forall"):
            kind, _, _ = self.next()
            _, name, _ = self.expect("ident")
            self.expect(".")
            body = self.formula()
            index = self.var_index(name)
            return F.Exists(index, body) if kind == "exists" else F.Forall(index, body)
        return self.implies()

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            return F.Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek() == "\\/":
            self.next()
            out = F.Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.negation()
        while self.peek() == "/\\":
            self.next()
            out = F.And(out, self.negation())
        return out

    def negation(self) -> Formula:
        if self.peek() == "~":
            self.next()
            return F.Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        if self.peek() == "true":
            self.next()
            return F.TRUE
        if self.peek() == "false":
            self.next()
            return F.FALSE
        if self.peek() == "(":
            # Could open a parenthesized formula or a parenthesized term.
            saved = self.pos
            saved_names = list(self.names)
            try:
                self.next()
                inner = self.formula()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
                self.names = saved_names
        left = self.term()
        op, _, at = self.next()
        right_ops = {"=", "!=", "<", "<=", ">", ">="}
        if op not in right_ops:
            raise ParseError(f"expected a comparison, found {op!r}", at)
        right = self.term()
        if op == "=":
            return F.Equal(left, right)
        if op == "!=":
            return F.Not(F.Equal(left, right))
        if op == "<":
            return F.Lt(left, right)
        if op == "<=":
            return F.Le(left, right)
        if op == ">":
            return F.Lt(right, left)
        return F.Le(right, left)

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        out = self.product()
        while self.peek() in ("+", "-"):
            op, _, _ = self.next()
            rhs = self.product()
            out = F.Add(out, rhs if op == "+" else F.Opp(rhs))
        return out

    def product(self) -> Term:
        out = self.unary()
        while self.peek() in ("*", "/"):
            op, _, _ = self.next()
            rhs = self.unary()
            out = F.Mul(out, rhs if op == "*" else F.Inv(rhs))
        return out

    def unary(self) -> Term:
        if self.peek() == "-":
            self.next()
            inner = self.unary()
            # Fold a negated literal so "-2" reads as the constant -2.
            if isinstance(inner, F.Const):
                return F.Const(-inner.value)
            return F.Opp(inner)
        return self.power()

    def power(self) -> Term:
        base = self.factor()
        while self.peek() == "^":
            self.next()
            _, digits, at = self.expect("num")
            if "." in digits:
                raise ParseError("exponent must be a natural number", at)
            n = int(digits)
            out = F.ONE if n == 0 else base
            for _ in range(n - 1):
                out = F.Mul(out, base)
            base = out
        return base

    def factor(self) -> Term:
        kind, text, at = self.next()
        if kind == "num":
            return F.Const(Fraction(text))
        if kind == "ident":
            return F.Var(self.var_index(text))
        if kind == "(":
            inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {text!r}", at)


def parse_formula(text: str, names: Optional[list[str]] = None) -> tuple[Formula, list[str]]:
    """Parse a formula; returns the AST and the name table (index order)."""
    p = _Parser(text, names)
    f = p.formula()
    if p.peek() is not None:
        tok = p.tokens[p.pos]
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return f, p.names


def parse_term(text: str, names: Optional[list[str]] = None) -> tuple[Term, list[str]]:
    p = _Parser(text, names)
    t = p.term()
    if p.peek() is not None:
        tok = p.tokens[p.pos]
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return t, p.names


# -- printing -------------------------------------------------------------


def _name(i: int, names: Optional[list[str]]) -> str:
    if names is not None and i < len(names):
        return names[i]
    return f"x{i}"


def term_to_str(t: Term, names: Optional[list[str]] = None, prec: int = 0) -> str:
    """Precedence levels: 1 additive, 2 multiplicative, 3 unary minus."""
    if isinstance(t, F.Var):
        return _name(t.index, names)
    if isinstance(t, F.Const):
        s = format_rational(t.value)
        return f"({s})" if (t.value < 0 and prec > 0) or "/" in s and prec >= 2 else s
    if isinstance(t, F.Add):
        rhs = t.right
        if isinstance(rhs, F.Opp):
            body = f"{term_to_str(t.left, names, 1)} - {term_to_str(rhs.arg, names, 2)}"
        else:
            body = f"{term_to_str(t.left, names, 1)} + {term_to_str(rhs, names, 2)}"
        return f"({body})" if prec > 1 else body
    if isinstance(t, F.Opp):
        body = f"-{term_to_str(t.arg, names, 3)}"
        return f"({body})" if prec > 2 else body
    if isinstance(t, F.Mul):
        if isinstance(t.right, F.Inv):
            body = f"{term_to_str(t.left, names, 2)} / {term_to_str(t.right.arg, names, 3)}"
        else:
            body = f"{term_to_str(t.left, names, 2)} * {term_to_str(t.right, names, 3)}"
        return f"({body})" if prec > 2 else body
    if isinstance(t, F.Inv):
        body = f"1 / {term_to_str(t.arg, names, 3)}"
        return f"({body})" if prec > 2 else body
    raise TypeError(f"not a term: {t!r}")


def formula_to_str(f: Formula, names: Optional[list[str]] = None, prec: int = 0) -> str:
    """Precedence levels: 1 ->, 2 \\/, 3 /\\, 4 ~, 5 atoms.

    Lifted formulas repeat the same term objects across many atoms, so each
    atom side is rendered once per call, memoized by the term's identity;
    the formula keeps every memoized term alive for the whole call."""
    return _formula_str(f, names, prec, {})


def _atom_side(t: Term, names: Optional[list[str]], rendered: dict[int, str]) -> str:
    s = rendered.get(id(t))
    if s is None:
        s = rendered[id(t)] = term_to_str(t, names)
    return s


def _formula_str(f: Formula, names: Optional[list[str]], prec: int, rendered: dict[int, str]) -> str:
    if isinstance(f, F.Bool):
        return "true" if f.value else "false"
    if isinstance(f, (F.Equal, F.Lt, F.Le)):
        op = {"Equal": "=", "Lt": "<", "Le": "<="}[type(f).__name__]
        return f"{_atom_side(f.left, names, rendered)} {op} {_atom_side(f.right, names, rendered)}"
    if isinstance(f, F.Implies):
        body = f"{_formula_str(f.left, names, 2, rendered)} -> {_formula_str(f.right, names, 1, rendered)}"
        return f"({body})" if prec > 1 else body
    if isinstance(f, F.Or):
        body = f"{_formula_str(f.left, names, 2, rendered)} \\/ {_formula_str(f.right, names, 3, rendered)}"
        return f"({body})" if prec > 2 else body
    if isinstance(f, F.And):
        body = f"{_formula_str(f.left, names, 3, rendered)} /\\ {_formula_str(f.right, names, 4, rendered)}"
        return f"({body})" if prec > 3 else body
    if isinstance(f, F.Not):
        inner = _formula_str(f.arg, names, 4, rendered)
        if not isinstance(f.arg, (F.Bool, F.Equal, F.Lt, F.Le, F.Not)):
            inner = f"({inner})"
        return f"~{inner}"
    if isinstance(f, (F.Exists, F.Forall)):
        word = "exists" if isinstance(f, F.Exists) else "forall"
        body = f"{word} {_name(f.index, names)}. {_formula_str(f.body, names, 0, rendered)}"
        return f"({body})" if prec > 0 else body
    raise TypeError(f"not a formula: {f!r}")


# -- JSON AST -------------------------------------------------------------


def term_to_json(t: Term) -> dict:
    if isinstance(t, F.Var):
        return {"node": "Var", "index": t.index}
    if isinstance(t, F.Const):
        return {"node": "Const", "value": format_rational(t.value)}
    if isinstance(t, (F.Add, F.Mul)):
        return {"node": type(t).__name__, "left": term_to_json(t.left), "right": term_to_json(t.right)}
    if isinstance(t, (F.Opp, F.Inv)):
        return {"node": type(t).__name__, "arg": term_to_json(t.arg)}
    raise TypeError(f"not a term: {t!r}")


def term_from_json(d: dict) -> Term:
    node = d["node"]
    if node == "Var":
        return F.Var(d["index"])
    if node == "Const":
        return F.Const(Fraction(d["value"]))
    if node in ("Add", "Mul"):
        cls = F.Add if node == "Add" else F.Mul
        return cls(term_from_json(d["left"]), term_from_json(d["right"]))
    if node in ("Opp", "Inv"):
        cls = F.Opp if node == "Opp" else F.Inv
        return cls(term_from_json(d["arg"]))
    raise ValueError(f"unknown term node: {node}")


def formula_to_json(f: Formula) -> dict:
    if isinstance(f, F.Bool):
        return {"node": "Bool", "value": f.value}
    if isinstance(f, (F.Equal, F.Lt, F.Le)):
        return {"node": type(f).__name__, "left": term_to_json(f.left), "right": term_to_json(f.right)}
    if isinstance(f, (F.And, F.Or, F.Implies)):
        return {"node": type(f).__name__, "left": formula_to_json(f.left), "right": formula_to_json(f.right)}
    if isinstance(f, F.Not):
        return {"node": "Not", "arg": formula_to_json(f.arg)}
    if isinstance(f, (F.Exists, F.Forall)):
        return {"node": type(f).__name__, "index": f.index, "body": formula_to_json(f.body)}
    raise TypeError(f"not a formula: {f!r}")


def formula_from_json(d: dict) -> Formula:
    node = d["node"]
    if node == "Bool":
        return F.Bool(d["value"])
    if node in ("Equal", "Lt", "Le"):
        cls = {"Equal": F.Equal, "Lt": F.Lt, "Le": F.Le}[node]
        return cls(term_from_json(d["left"]), term_from_json(d["right"]))
    if node in ("And", "Or", "Implies"):
        cls = {"And": F.And, "Or": F.Or, "Implies": F.Implies}[node]
        return cls(formula_from_json(d["left"]), formula_from_json(d["right"]))
    if node == "Not":
        return F.Not(formula_from_json(d["arg"]))
    if node in ("Exists", "Forall"):
        cls = F.Exists if node == "Exists" else F.Forall
        return cls(d["index"], formula_from_json(d["body"]))
    raise ValueError(f"unknown formula node: {node}")


# -- polynomials ----------------------------------------------------------


def _term_to_poly(t: Term, var_index: int) -> Poly:
    if isinstance(t, F.Var):
        if t.index != var_index:
            raise ValueError("polynomial text must use a single variable")
        return Poly.x()
    if isinstance(t, F.Const):
        return Poly.const(t.value)
    if isinstance(t, F.Add):
        return _term_to_poly(t.left, var_index) + _term_to_poly(t.right, var_index)
    if isinstance(t, F.Opp):
        return -_term_to_poly(t.arg, var_index)
    if isinstance(t, F.Mul):
        return _term_to_poly(t.left, var_index) * _term_to_poly(t.right, var_index)
    if isinstance(t, F.Inv):
        inner = _term_to_poly(t.arg, var_index)
        if inner.degree > 0 or inner.is_zero:
            raise ValueError("division by a non-constant in a polynomial")
        return Poly.const(1 / inner.coeffs[0])
    raise TypeError(f"not a term: {t!r}")


def parse_poly(text: str) -> Poly:
    """Parse polynomial text like "x^2 - 2" or "3/2*x^3 + x"."""
    t, names = parse_term(text)
    if len(names) > 1:
        raise ValueError(f"polynomial text must use a single variable, got {names}")
    return _term_to_poly(t, 0)


def poly_to_str(p: Poly, var: str = "x") -> str:
    """Human form, descending degree."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = format_rational(mag)
        elif i == 1:
            body = var if mag == 1 else f"{format_rational(mag)}*{var}"
        else:
            body = f"{var}^{i}" if mag == 1 else f"{format_rational(mag)}*{var}^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def poly_to_json(p: Poly) -> list[str]:
    """JSON form: coefficient array, lowest degree first, as "p/q" strings."""
    return [format_rational(c) for c in p.coeffs]
