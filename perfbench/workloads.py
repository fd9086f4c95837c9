"""Seeded case generators and answer checks for the three workloads.

Every case is generated from (workload, seed, round) alone, so the same
seed gives the same inputs.  Each generator knows its expected answers
without calling the code path under test:

* decide-ground and roots-signdet build their polynomials from known
  roots (rationals, repeated rationals, and +-sqrt(k) from x^2 - k), so
  expected truth values, isolating intervals, Tarski queries and sign
  counts follow from exact arithmetic in exact.py;
* qe-param is checked at seeded parameter points, against a closed form
  where the template has one and otherwise against a ground decision of
  the instantiated formula, which takes tarski's ground path rather than
  the lifted one.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Callable, Optional

from exact import FormulaStats, KnownPoly, Q, Root, fmt, is_square

SIGNS = (1, -1, 0)


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def nonzero_q(rng: random.Random, num: int = 9, den: int = 5) -> Fraction:
    while True:
        v = Q(rng.randint(-num, num), rng.randint(1, den))
        if v:
            return v


def positive_q(rng: random.Random, num: int = 9, den: int = 5) -> Fraction:
    return Q(rng.randint(1, num), rng.randint(1, den))


def small_q(rng: random.Random, num: int = 6, den: int = 3) -> Fraction:
    return Q(rng.randint(-num, num), rng.randint(1, den))


def non_square(rng: random.Random) -> Fraction:
    """A positive rational that is not a square."""
    while True:
        k = Q(rng.randint(2, 20), rng.randint(1, 3))
        if not is_square(k):
            return k


# -- qe-param ----------------------------------------------------------------


class Template:
    """A parametric QE template: the seed draws only its rational constants."""

    def __init__(self, name: str, params: str, make: Callable, truth: Optional[Callable] = None,
                 extra_points: Optional[Callable] = None):
        self.name = name
        self.params = params.split()
        self.make = make  # rng -> (text with {x} placeholders, constants)
        self.truth = truth  # (constants, point) -> bool, the closed form
        self.extra_points = extra_points  # (rng, constants) -> points on a boundary


def _disc_quad(k, b, c):
    return b * b - 4 * k * c >= 0


def _genquad_truth(cs, p):
    a, b, c = p["a"], p["b"], p["c"] - cs["k"]
    if a:
        return b * b - 4 * a * c >= 0
    return b != 0 or c == 0


# Template constants are positive: their signs decide which case splits
# fold, so a fixed sign keeps each template's output size and difficulty
# the same across seeds.
TEMPLATES = [
    Template(
        "quad", "b c",
        lambda r: ("exists x. {k}*x^2 + b*x + c = 0", {"k": positive_q(r)}),
        lambda cs, p: _disc_quad(cs["k"], p["b"], p["c"]),
        lambda r, cs: [{"b": (b := small_q(r)), "c": b * b / (4 * cs["k"])}],
    ),
    Template(
        "cubic", "a b c",
        lambda r: ("exists x. x^3 + a*x^2 + b*x + c = {k}", {"k": positive_q(r)}),
        lambda cs, p: True,
    ),
    Template(
        "genquad", "a b c",
        lambda r: ("exists x. a*x^2 + b*x + c = {k}", {"k": positive_q(r)}),
        _genquad_truth,
        lambda r, cs: [
            {"a": Q(0), "b": Q(0), "c": cs["k"]},
            {"a": Q(0), "b": Q(0), "c": cs["k"] + 1},
            {"a": (a := nonzero_q(r)), "b": (b := small_q(r)), "c": cs["k"] + b * b / (4 * a)},
        ],
    ),
    Template(
        "forall_quad", "b c",
        lambda r: ("forall x. x^2 + b*x + c > {k}", {"k": positive_q(r)}),
        lambda cs, p: p["b"] ** 2 - 4 * (p["c"] - cs["k"]) < 0,
        lambda r, cs: [{"b": (b := small_q(r)), "c": cs["k"] + b * b / 4}],
    ),
    Template(
        "quartic", "p q r",
        lambda r: ("exists x. x^4 + p*x^2 + q*x + r = {k}", {"k": positive_q(r)}),
    ),
    Template(
        "quad_gt", "b c",
        lambda r: ("exists x. x^2 + b*x + c = 0 /\\ x > {r}", {"r": positive_q(r)}),
    ),
    Template(
        "dcubic_gt", "p q",
        lambda r: ("exists x. x^3 + p*x + q = 0 /\\ x > {r}", {"r": positive_q(r)}),
    ),
    Template(
        "cubic_gt", "a b c",
        lambda r: ("exists x. x^3 + a*x^2 + b*x + c = 0 /\\ x > {r}", {"r": positive_q(r)}),
    ),
    Template(
        "genquad_gt", "a b c",
        lambda r: ("exists x. a*x^2 + b*x + c = 0 /\\ x > {r}", {"r": positive_q(r)}),
    ),
    Template(
        "between", "a b",
        lambda r: ("exists x. x > a + {r1} /\\ x < b + {r2}", {"r1": positive_q(r), "r2": positive_q(r)}),
        lambda cs, p: p["a"] + cs["r1"] < p["b"] + cs["r2"],
        lambda r, cs: [{"a": (a := small_q(r)), "b": a + cs["r1"] - cs["r2"]}],
    ),
    Template(
        "shared", "a b c",
        lambda r: ("exists x. x^2 + a*x + b = 0 /\\ {k}*x^2 + c*x + {d} = 0",
                   {"k": positive_q(r), "d": positive_q(r)}),
        None,
        # a common root t: b = -t^2 - a*t and c = -(k*t^2 + d)/t
        lambda r, cs: [{"a": (a := small_q(r)), "b": -(t := nonzero_q(r, 4, 2)) ** 2 - a * t,
                        "c": -(cs["k"] * t * t + cs["d"]) / t}],
    ),
    Template(
        "nested", "b",
        lambda r: ("forall a. exists x. x^2 + a*x + b = {k}", {"k": positive_q(r)}),
        lambda cs, p: p["b"] <= cs["k"],
        lambda r, cs: [{"b": cs["k"]}],
    ),
    Template(
        "slow_box", "b c",
        lambda r: ("exists x. x^2 + b*x + c = 0 /\\ x > {r1} /\\ x < {r2}",
                   dict(zip(("r1", "r2"), sorted(_distinct(r, 2))))),
    ),
    Template(
        "slow_neg", "b c",
        lambda r: ("exists x. x^2 + b*x + c < 0 /\\ x > {r}", {"r": positive_q(r)}),
    ),
]
TEMPLATE_BY_NAME = {t.name: t for t in TEMPLATES}


def _distinct(rng: random.Random, n: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < n:
        v = positive_q(rng)
        if v not in out:
            out.append(v)
    return out


def qe_case(template: Template, rng: random.Random, points_per_case: int) -> dict:
    text, consts = template.make(rng)
    points = [{v: small_q(rng) for v in template.params} for _ in range(points_per_case)]
    if template.extra_points:
        points += template.extra_points(rng, consts)
    return {
        "op": "qelim",
        "template": template.name,
        "text": text.format(**{k: fmt(v) for k, v in consts.items()}),
        "consts": consts,
        "points": points,
    }


def qe_round(seed: int, round_no: int, points_per_case: int) -> list[dict]:
    rng = rng_for("qe-param", seed, round_no)
    return [qe_case(t, rng, points_per_case) for t in TEMPLATES]


def instantiate(text: str, point: dict) -> str:
    """Closed formula text: every parameter replaced by its value."""
    return re.sub(r"\b([a-z])\b", lambda m: fmt(point[m.group(1)]) if m.group(1) in point else m.group(1), text)


# -- decide-ground -------------------------------------------------------------


_ROOT_POOL = sorted({Q(n, d) for n in range(-8, 9) for d in (1, 2, 3, 4)})


def shaped_poly(rng: random.Random, shape: tuple) -> KnownPoly:
    """A polynomial of the given shape: (distinct rational roots, extra
    multiplicity of the first one, factors x^2 - k with k > 0, factors
    x^2 - k with k < 0).  The seed draws only the values."""
    n_rational, extra, n_real, n_complex = shape
    roots = rng.sample(_ROOT_POOL, n_rational)
    mults = {r: 1 for r in roots}
    mults[roots[0]] += extra
    ks: list[Fraction] = []
    while len(ks) < n_real + n_complex:
        k = non_square(rng) * (1 if len(ks) < n_real else -1)
        if k not in ks:
            ks.append(k)
    return KnownPoly(rng.choice([Q(1), Q(-1), Q(2), Q(-3, 2), Q(1, 3), Q(5, 4)]), mults, ks)


def poly_text(kp: KnownPoly) -> str:
    factors = []
    for r, m in kp.rational_roots.items():
        f = f"(x - {fmt(r)})"
        factors.append(f + (f"^{m}" if m > 1 else ""))
    factors += [f"(x^2 - {fmt(k)})" for k in kp.ks]
    return f"{fmt(kp.lc)}*" + "*".join(factors)


def _roots_inside(kp: KnownPoly, c: Fraction, d: Fraction) -> list[Root]:
    return [root for root, _ in kp.real_roots() if root.cmp_q(c) > 0 and root.cmp_q(d) < 0]


def _negative_inside(kp: KnownPoly, c: Fraction, d: Fraction) -> bool:
    ends = [Root(q=c)] + _roots_inside(kp, c, d) + [Root(q=d)]
    return any(kp.sign_between(u, v) < 0 for u, v in zip(ends, ends[1:]))


DECIDE_VARIANTS = {
    "exists_zero": ("exists x. {p} = 0 /\\ x > {c} /\\ x < {d}", lambda kp, c, d: bool(_roots_inside(kp, c, d))),
    "forall_nonzero": ("forall x. {p} = 0 -> x <= {c} \\/ x >= {d}", lambda kp, c, d: not _roots_inside(kp, c, d)),
    "exists_neg": ("exists x. {p} < 0 /\\ x > {c} /\\ x < {d}", _negative_inside),
    "forall_nonneg": ("forall x. x > {c} /\\ x < {d} -> {p} >= 0", lambda kp, c, d: not _negative_inside(kp, c, d)),
}


# Slot j uses variant j mod 4 and shape (j div 4) mod 5, so a round of a
# multiple of 20 cases has the same mix of structures for every seed.
DECIDE_SHAPES = [(2, 0, 1, 0), (3, 1, 1, 0), (4, 0, 0, 1), (3, 0, 1, 0), (4, 1, 1, 0)]


def decide_case(rng: random.Random, j: int) -> dict:
    kp = shaped_poly(rng, DECIDE_SHAPES[(j // 4) % len(DECIDE_SHAPES)])
    # Interval ends come from the root pool, so they may hit a root exactly.
    c, d = sorted(rng.sample(_ROOT_POOL[8:-8], 2))
    variant = sorted(DECIDE_VARIANTS)[j % 4]
    text, truth = DECIDE_VARIANTS[variant]
    return {
        "op": "decide",
        "variant": variant,
        "text": text.format(p=poly_text(kp), c=fmt(c), d=fmt(d)),
        "expected": truth(kp, c, d),
    }


def decide_round(seed: int, round_no: int, cases: int) -> list[dict]:
    rng = rng_for("decide-ground", seed, round_no)
    return [decide_case(rng, j) for j in range(cases)]


# -- roots-signdet ---------------------------------------------------------------

# Polynomial shapes (see shaped_poly) of degrees 6, 8, 8, 10 and 12.  Slot
# j of each request kind uses shape j, cyclically, so a round's degrees and
# real-root counts are the same for every seed.
RS_SHAPES = [(3, 1, 1, 0), (4, 0, 1, 1), (2, 2, 2, 0), (5, 1, 1, 1), (4, 2, 2, 1)]
# The three-constraint signdet uses the degree-8 shape with six real roots.
SIGNDET3_SHAPE = RS_SHAPES[1]


def _constraint(rng: random.Random, kp: KnownPoly, j: int) -> list[Fraction]:
    """Constraint j: a linear factor of p (so sign 0 occurs), then a random
    quadratic, then a random line."""
    if j % 3 == 0:
        return [-rng.choice(sorted(kp.rational_roots)), Q(1)]
    if j % 3 == 1:
        return [small_q(rng), small_q(rng), nonzero_q(rng)]
    return [small_q(rng), nonzero_q(rng)]


def _signs_at_roots(kp: KnownPoly, qs: list[list[Fraction]]) -> list[tuple[int, ...]]:
    return [tuple(root.sign_of(q) for q in qs) for root, _ in kp.real_roots()]


def _qstr(coeffs: list[Fraction]) -> list[str]:
    return [str(c) for c in coeffs]


def roots_signdet_round(seed: int, round_no: int, mix: dict, eps: str) -> list[dict]:
    rng = rng_for("roots-signdet", seed, round_no)
    cases = []
    for j in range(mix["roots"]):
        kp = shaped_poly(rng, RS_SHAPES[j % len(RS_SHAPES)])
        cases.append({"op": "roots", "p": _qstr(kp.coeffs), "eps": eps, "known": kp})
    for j in range(mix["taq"]):
        kp = shaped_poly(rng, RS_SHAPES[j % len(RS_SHAPES)])
        q = _constraint(rng, kp, j)
        cases.append({"op": "taq", "p": _qstr(kp.coeffs), "q": _qstr(q),
                      "expected": sum(s for (s,) in _signs_at_roots(kp, [q]))})
    for n, count in enumerate(mix["signdet"], start=1):
        for j in range(count):
            kp = shaped_poly(rng, SIGNDET3_SHAPE if n == 3 else RS_SHAPES[j % len(RS_SHAPES)])
            qs = [_constraint(rng, kp, i) for i in range(n)]
            counts = {sv: 0 for sv in itertools.product(SIGNS, repeat=n)}
            for sv in _signs_at_roots(kp, qs):
                counts[sv] += 1
            cases.append({"op": "signdet", "p": _qstr(kp.coeffs), "qs": [_qstr(q) for q in qs],
                          "expected": counts})
    rng.shuffle(cases)
    return cases


# -- checks ------------------------------------------------------------------------


# The fields a worker receives; everything else stays with the harness.
PAYLOAD_KEYS = ("op", "text", "p", "q", "qs", "eps")


def payload(case: dict) -> dict:
    return {k: case[k] for k in PAYLOAD_KEYS if k in case}


def check_signdet(case: dict, result: list) -> Optional[str]:
    got = {tuple(sv): count for sv, count in result}
    if got != case["expected"]:
        wrong = sorted(sv for sv in case["expected"] if got.get(sv) != case["expected"][sv])
        return f"sign counts differ at {wrong[:3]}"
    return None


def _bound_ok(root: Root, value: Optional[str], closed: bool, side: int) -> bool:
    """The root lies strictly inside (or on a closed side of) one bound."""
    if value is None:
        return True
    c = root.cmp_q(Q(value))
    return c == side or (closed and c == 0)


def check_roots(case: dict, result: list) -> Optional[str]:
    """None when the refined intervals isolate exactly the known roots, in
    order, with their multiplicities and below the requested width."""
    expected = case["known"].real_roots()
    if len(result) != len(expected):
        return f"{len(result)} intervals for {len(expected)} distinct roots"
    eps = Q(case["eps"])
    for (lo, lo_closed, hi, hi_closed, mult), (root, m) in zip(result, expected):
        if lo is None or hi is None or Q(hi) - Q(lo) >= eps:
            return f"interval ]{lo},{hi}[ is not finite and narrower than {eps}"
        if not (_bound_ok(root, lo, lo_closed, 1) and _bound_ok(root, hi, hi_closed, -1)):
            return f"interval ]{lo},{hi}[ misses the root {root}"
        if mult != m:
            return f"multiplicity {mult} for the root {root} of multiplicity {m}"
    return None


def check_qe(case: dict, output: str, reference: Callable[[str, dict], tuple[bool, str]]) -> tuple[Optional[str], FormulaStats, list[str]]:
    """Evaluate the QE output at the case's points against the reference;
    returns (error or None, the output's statistics, reference kinds used)."""
    stats = FormulaStats(output, case["points"])
    kinds = []
    for point, value in zip(case["points"], stats.values):
        expected, kind = reference(case, point)
        kinds.append(kind)
        if value != expected:
            shown = ", ".join(f"{k} = {v}" for k, v in sorted(point.items()))
            return f"output is {value} at {shown}, {kind} reference says {expected}", stats, kinds
    return None, stats, kinds


def closed_form(case: dict, point: dict) -> Optional[bool]:
    t = TEMPLATE_BY_NAME[case["template"]]
    return None if t.truth is None else t.truth(case["consts"], point)
