"""Command-line front-end: decide closed formulas, eliminate quantifiers,
isolate polynomial roots, and run Tarski queries and sign determination.

Output is text by default or a single JSON object with keys "command",
"input" and "result" under --format json; all rationals print exactly as
"p/q" strings.  Exit codes: 0 success (and "true" for decide), 1 decide
answered "false", 2 usage, semantic or internal error (such as input
nested too deeply to parse).  Any argument of the form @path is replaced
by the contents of that file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .formula import Formula, free_vars
from .intervals import Interval, format_interval, full_line, intersect, is_empty, open_
from .isolate import count_roots, isolate_roots, refine
from .lift import max_var_degree
from .poly import Poly
from .qelim import check_equiv, decide, q_elim
from .rational import format_rational, parse_rational
from .signdet import sign_counts
from .sturm import tarski_query
from .syntax import (
    formula_to_json,
    formula_to_str,
    parse_formula,
    parse_poly,
    poly_to_json,
    poly_to_str,
)

DEFAULT_MAX_DEGREE = 16


class CliError(Exception):
    pass


def _max_degree() -> int:
    raw = os.environ.get("TARSKI_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"TARSKI_MAX_DEGREE is not an integer: {raw!r}")


def _expand_at(arg: str) -> str:
    if arg.startswith("@"):
        path = arg[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}")
    return arg


def _parse_poly_arg(text: str) -> Poly:
    try:
        p = parse_poly(_expand_at(text))
    except ValueError as exc:
        raise CliError(str(exc))
    limit = _max_degree()
    if p.degree > limit:
        raise CliError(f"degree {p.degree} exceeds TARSKI_MAX_DEGREE = {limit}")
    return p


def _parse_formula_arg(text: str) -> tuple[Formula, list[str]]:
    try:
        f, names = parse_formula(_expand_at(text))
    except ValueError as exc:
        raise CliError(str(exc))
    _check_formula_degree(f)
    return f, names


def _check_formula_degree(f: Formula) -> None:
    """Reject atoms whose polynomial degree in any single variable exceeds
    the TARSKI_MAX_DEGREE guard."""
    from . import formula as F

    limit = _max_degree()

    def check_term(t) -> None:
        e = max_var_degree(t)
        if e > limit:
            raise CliError(f"degree {e} exceeds TARSKI_MAX_DEGREE = {limit}")

    def walk(g: Formula) -> None:
        if isinstance(g, (F.Equal, F.Lt, F.Le)):
            check_term(F.sub(g.left, g.right))
        elif isinstance(g, (F.And, F.Or, F.Implies)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, F.Not):
            walk(g.arg)
        elif isinstance(g, (F.Exists, F.Forall)):
            walk(g.body)

    walk(f)


def _parse_rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CliError(str(exc))


def _emit(args, command: str, inp, result) -> None:
    if args.format == "json":
        print(json.dumps({"command": command, "input": inp, "result": result}, indent=2))


def _approx_str(p: Poly, iso: Interval, digits: int) -> str:
    """Decimal approximation of the isolated root to the requested number
    of digits, via interval refinement."""
    eps = Fraction(1, 10 ** (digits + 2))
    tight = refine(p, iso, eps)
    mid = (tight.lo.value + tight.hi.value) / 2
    scaled = round(mid * 10**digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def _cmd_decide(args) -> int:
    f, names = _parse_formula_arg(args.formula)
    fv = free_vars(f)
    if fv:
        shown = ", ".join(names[i] if i < len(names) else f"x{i}" for i in sorted(fv))
        raise CliError(f"formula is not closed: free variable(s) {shown}")
    try:
        value = decide(f)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.format == "json":
        _emit(args, "decide", _expand_at(args.formula), value)
    else:
        print("true" if value else "false")
    return 0 if value else 1


def _cmd_qelim(args) -> int:
    if args.check < 0:
        raise CliError("--check must be non-negative")
    f, names = _parse_formula_arg(args.formula)
    g = q_elim(f)
    if args.check:
        counterexample = check_equiv(f, g, samples=args.check)
        if counterexample is not None:
            assignment = ", ".join(
                f"{names[i] if i < len(names) else f'x{i}'} = {format_rational(v)}"
                for i, v in sorted(counterexample.items())
            )
            raise CliError(f"equivalence check failed at {assignment}")
    if args.format == "json":
        result = {"formula": formula_to_json(g), "text": formula_to_str(g, names)}
        if args.check:
            result["checked_samples"] = args.check
        _emit(args, "qelim", _expand_at(args.formula), result)
    else:
        print(formula_to_str(g, names))
    return 0


def _cmd_roots(args) -> int:
    p = _parse_poly_arg(args.poly)
    if p.is_zero:
        raise CliError("cannot isolate roots of the zero polynomial")
    window = full_line()
    if args.interval:
        a = _parse_rational_arg(args.interval[0])
        b = _parse_rational_arg(args.interval[1])
        if a > b:
            raise CliError("empty interval: lower bound exceeds upper bound")
        from .intervals import closed

        window = closed(a, b)
    eps = _parse_rational_arg(args.eps) if args.eps else None
    if eps is not None and eps <= 0:
        raise CliError("--eps must be positive")
    if args.approx is not None and args.approx < 0:
        raise CliError("--approx must be non-negative")

    roots = []
    for root in isolate_roots(p):
        if args.interval:
            clipped = intersect(root.interval, window)
            if is_empty(clipped) or count_roots(p, clipped) == 0:
                continue
        iso = root.interval
        if eps is not None:
            iso = refine(p, iso, eps)
        entry = {
            "interval": format_interval(iso),
            "multiplicity": root.multiplicity,
        }
        if args.approx is not None:
            entry["approx"] = _approx_str(p, iso, args.approx)
        roots.append(entry)

    if args.format == "json":
        _emit(args, "roots", poly_to_json(p), roots)
    else:
        if not roots:
            print("no real roots")
        for entry in roots:
            line = f"{entry['interval']} (multiplicity {entry['multiplicity']})"
            if "approx" in entry:
                line += f" ~ {entry['approx']}"
            print(line)
    return 0


def _cmd_taq(args) -> int:
    p = _parse_poly_arg(args.p)
    q = _parse_poly_arg(args.q)
    if p.is_zero:
        raise CliError("Tarski query over the zero polynomial")
    value = tarski_query(p, q)
    if args.format == "json":
        _emit(args, "taq", {"p": poly_to_json(p), "q": poly_to_json(q)}, value)
    else:
        print(value)
    return 0


def _sign_symbol(s: int) -> str:
    return {1: "+1", -1: "-1", 0: "0"}[s]


def _cmd_signdet(args) -> int:
    p = _parse_poly_arg(args.p)
    if p.is_zero:
        raise CliError("sign determination over the zero polynomial")
    qs = [_parse_poly_arg(part) for part in _expand_at(args.qs).split(",")]
    table = sign_counts(p, qs).items()
    if args.format == "json":
        result = [
            {"signs": [_sign_symbol(s) for s in sv], "count": count}
            for sv, count in table
        ]
        _emit(args, "signdet", {"p": poly_to_json(p), "qs": [poly_to_json(q) for q in qs]}, result)
    else:
        for sv, count in table:
            print(f"({', '.join(_sign_symbol(s) for s in sv)}): {count}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tarski",
        description="Exact decision and quantifier elimination over the real numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_decide = sub.add_parser("decide", help="decide a closed formula")
    p_decide.add_argument("formula")
    add_format(p_decide)
    p_decide.set_defaults(run=_cmd_decide)

    p_qelim = sub.add_parser("qelim", help="eliminate quantifiers")
    p_qelim.add_argument("formula")
    p_qelim.add_argument("--check", type=int, default=0, metavar="N",
                         help="verify the result on N sampled assignments")
    add_format(p_qelim)
    p_qelim.set_defaults(run=_cmd_qelim)

    p_roots = sub.add_parser("roots", help="isolate the real roots of a polynomial")
    p_roots.add_argument("poly")
    p_roots.add_argument("--interval", nargs=2, metavar=("A", "B"),
                         help="restrict to roots in [A, B]")
    p_roots.add_argument("--eps", metavar="E", help="refine intervals below width E")
    p_roots.add_argument("--approx", type=int, metavar="K",
                         help="print K decimal digits per root")
    add_format(p_roots)
    p_roots.set_defaults(run=_cmd_roots)

    p_taq = sub.add_parser("taq", help="Tarski query: sum of sign(Q) over roots of P")
    p_taq.add_argument("p")
    p_taq.add_argument("q")
    add_format(p_taq)
    p_taq.set_defaults(run=_cmd_taq)

    p_sd = sub.add_parser("signdet", help="sign distribution of Q1..Qn on the roots of P")
    p_sd.add_argument("p")
    p_sd.add_argument("qs", help="comma-separated polynomials")
    add_format(p_sd)
    p_sd.set_defaults(run=_cmd_signdet)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # An uncaught exception would exit 1, which reads as "false".
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
