import hashlib
import random
import time
from fractions import Fraction

import pytest

from tarski.formula import And, Implies, Not, Or, free_vars, qf_eval, qf_form
from tarski.qelim import check_equiv, decide, q_elim
from tarski.syntax import formula_to_str, parse_formula

from helpers import rand_env


def Q(a, b=1):
    return Fraction(a, b)


# (text, expected truth) -- closed single-quantifier formulas
CLOSED_CORPUS = [
    ("exists x. x^2 = 2", True),
    ("exists x. x^2 + 1 = 0", False),
    ("forall x. x^2 + 1 > 0", True),
    ("exists x. x^2 = 2 /\\ x > 3/2", False),
    ("exists x. x^2 = 2 /\\ x > 1", True),
    ("exists x. x^3 = 2", True),
    ("forall x. x^2 >= 0", True),
    ("forall x. x^3 - x <= 1", False),
    ("exists x. x^2 - 3*x + 2 = 0 /\\ x < 3/2", True),
    ("exists x. x^2 < 0", False),
    ("exists x. x^3 - 2*x + 1 = 0 /\\ x > 0 /\\ x < 1", True),
    ("forall x. x = 0 \\/ x^2 > 0", True),
    ("exists x. x != x", False),
    ("exists x. 2*x = 1", True),
    ("forall x. x > 0 -> 1/x > 0", True),
    ("exists x. x > 0 /\\ x^2 <= 1/4", True),
    ("forall x. x^2 - 2*x + 1 >= 0", True),
    ("exists x. x^2 - 2*x + 1 < 0", False),
    ("exists x. x^2 + x + 1 <= 3/4", True),
    ("exists x. x^2 + x + 1 < 3/4", False),
    ("forall x. x^3 + 1 > 0 \\/ x <= 0", True),
    ("exists x. true", True),
    ("forall x. false", False),
]


def test_decide_closed_corpus():
    for text, expected in CLOSED_CORPUS:
        f, _ = parse_formula(text)
        assert decide(f) == expected, text


def test_q_elim_outputs_are_quantifier_free():
    for text, _ in CLOSED_CORPUS:
        f, _ = parse_formula(text)
        g = q_elim(f)
        assert qf_form(g), text
        assert free_vars(g) <= free_vars(f), text


def test_decide_requires_closed_formula():
    f, _ = parse_formula("x > 0")
    with pytest.raises(ValueError):
        decide(f)


def test_odd_degree_always_has_root():
    # exists x. x^3 + p*x + q = 0 is true for every parameter value
    f, names = parse_formula("exists x. x^3 + p*x + q = 0")
    g = q_elim(f)
    assert qf_form(g)
    idx = {name: i for i, name in enumerate(names)}
    rng = random.Random(900)
    for _ in range(100):
        vp, vq = rand_env(rng, 2, bound=8)
        env = [Q(0)] * len(names)
        env[idx["p"]], env[idx["q"]] = vp, vq
        assert qf_eval(env, g), (vp, vq)


def test_parametric_quadratic_matches_discriminant():
    # exists x. x^2 + b*x + c = 0  <->  b^2 - 4c >= 0
    f, names = parse_formula("exists x. x^2 + b*x + c = 0")
    g = q_elim(f)
    assert qf_form(g)
    idx = {name: i for i, name in enumerate(names)}
    rng = random.Random(901)
    for _ in range(200):
        b, c = rand_env(rng, 2, bound=8)
        env = [Q(0)] * len(names)
        env[idx["b"]], env[idx["c"]] = b, c
        assert qf_eval(env, g) == (b * b - 4 * c >= 0), (b, c)


def test_parametric_linear():
    # exists x. a*x + b = 0  <->  a != 0 \/ b = 0
    f, names = parse_formula("exists x. a*x + b = 0")
    g = q_elim(f)
    idx = {name: i for i, name in enumerate(names)}
    rng = random.Random(902)
    for _ in range(100):
        a, b = rand_env(rng, 2, bound=6)
        env = [Q(0)] * len(names)
        env[idx["a"]], env[idx["b"]] = a, b
        assert qf_eval(env, g) == (a != 0 or b == 0)


def test_check_equiv_agrees_and_finds_counterexamples():
    f, _ = parse_formula("exists x. x^2 + b*x + c = 0")
    g, names = parse_formula("b*b - 4*c >= 0")
    # name tables differ; align b, c indices by reparsing with shared names
    f2, _ = parse_formula("exists x. x^2 + b*x + c = 0", ["b", "c"])
    assert check_equiv(f2, g, samples=60) is None
    wrong, _ = parse_formula("b*b - 4*c > 0", ["b", "c"])
    assert check_equiv(f2, wrong, samples=200) is not None


def test_nested_quantifiers():
    cases = [
        ("forall b. exists x. x^2 + b*x - 1 = 0", True),
        ("exists b. forall x. x^2 + b > 0", True),
        ("forall b. exists x. x + b = 0", True),
        ("exists y. forall x. x^2 + y <= x^2", True),
        ("forall y. exists x. x^2 = y", False),
    ]
    for text, expected in cases:
        f, _ = parse_formula(text)
        assert decide(f) == expected, text


def test_quantifier_under_connectives():
    f, _ = parse_formula("(exists x. x^2 = 2) /\\ ~(exists x. x^2 = -1)")
    assert decide(f)
    g, _ = parse_formula("(forall x. x^2 >= 0) -> (exists x. x = 5)")
    assert decide(g)


def test_q_elim_on_open_formula_is_pointwise_equivalent():
    f, names = parse_formula("exists x. x^2 + b*x + 1 < 0")
    g = q_elim(f)
    assert qf_form(g)
    assert check_equiv(f, g, samples=60) is None


# SHA-1 of formula_to_str(q_elim(f), names): the printed output is part of
# the interface (its size is a benchmark metric), so any change to it must
# be deliberate.
OUTPUT_DIGESTS = [
    ("exists x. x^2 + b*x + c = 0 /\\ x > 7", "b0a2f19229afdd55ee6e1da3a5d08e26702dde2c"),
    ("exists x. a*x^2 + b*x + c = 0 /\\ x > 5/2", "f4be48c1587a024a023154ef3e441d53e717135c"),
    ("exists x. x > a + 8/5 /\\ x < b + 3/2", "3edc1053ab9410ef101d7d87ddc9a4486c78f260"),
    ("forall a. exists x. x^2 + a*x + b = 3/2", "615185d917ad07bc44452f0fb6225241d7908fdd"),
    # remainder sequences with pseudo-divisions of two, three and four steps
    ("exists x. x^2 + a*x + b = 0 /\\ 1/2*x^2 + c*x + 6/5 = 0", "7fb51ba4f18299e89a41b85ad6e25d271ff50faa"),
    ("exists x. x^3 + a*x^2 + b*x + c = 0 /\\ x > 4", "829974ce2afdba53755abe8d126f70ffe1cd8e9d"),
    # equal disjuncts merge: the two lift to one formula, printed once, in
    # a block of its own and in a block nested under another
    ("exists x. (x^2 + b*x + c = 0 /\\ x > 1) \\/ (x > 1 /\\ x^2 + b*x + c = 0)",
     "ba0a509617c3a7ef0293d96d3851482fed6610dc"),
    ("exists y. forall x. x^2 + y*x + b >= 0", "08a31b23ea47bfed75bd50fcba032af6d0342ded"),
    # four chained Tarski queries, whose case trees lift shares
    ("exists x. x^2 + b*x + c = 0 /\\ 0 < x /\\ x < 1", "386e016b76c30e341400e13df766202d7b9ea2b3"),
]


def _output_digest(text):
    f, names = parse_formula(text)
    g = q_elim(f)
    return g, names, hashlib.sha1(formula_to_str(g, names).encode()).hexdigest()


@pytest.mark.parametrize("text,digest", OUTPUT_DIGESTS)
def test_q_elim_output_text_is_pinned(text, digest):
    assert _output_digest(text)[2] == digest


def _formula_nodes(f):
    """Formula nodes of f counted as a tree, and its distinct node objects."""
    sizes = {}

    def size(g):
        if id(g) not in sizes:
            kids = (g.left, g.right) if isinstance(g, (And, Or, Implies)) else (g.arg,) if isinstance(g, Not) else ()
            sizes[id(g)] = 1 + sum(size(k) for k in kids)
        return sizes[id(g)]

    return size(f), len(sizes)


def test_q_elim_shares_repeated_query_subtrees():
    # Each Tarski query's case tree recurs under every leaf of the query
    # before it; lift builds each recurrence once and reuses the object.
    f, _ = parse_formula("exists x. x^2 + b*x + c = 0 /\\ 0 < x /\\ x < 1")
    tree, distinct = _formula_nodes(q_elim(f))
    assert tree == 4411
    assert distinct * 5 < tree


def test_q_elim_quadratic_root_in_open_box():
    # A cliff case: about 10 s when lift re-hashed term trees per lookup,
    # so the budget catches a return to that cost.
    text = "exists x. x^2 + b*x + c = 0 /\\ x > 5/4 /\\ x < 9/5"
    t0 = time.monotonic()
    g, names, digest = _output_digest(text)
    assert time.monotonic() - t0 < 15
    assert digest == "723bbeae181c3fbba483a173c08c571cc939c45a"
    points = [
        (Q(-3), Q(9, 4), True),  # double root 3/2
        (Q(-5, 2), Q(25, 16), False),  # double root 5/4, the open end
        (Q(-3), Q(2), False),  # roots 1 and 2
        (Q(0), Q(1), False),  # no real root
    ]
    for b, c, expected in points:
        env = [Q(0)] * len(names)
        env[names.index("b")], env[names.index("c")] = b, c
        ground = text.replace("b*x", f"({b})*x").replace("+ c", f"+ ({c})")
        assert decide(parse_formula(ground)[0]) == expected
        assert qf_eval(env, g) == expected
