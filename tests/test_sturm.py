import random
from fractions import Fraction

import pytest

from tarski.poly import Poly
from tarski.sturm import (
    NEG_INF,
    POS_INF,
    nonvanishing_endpoints,
    sign_at_inf,
    sremp,
    tarski_query,
    var,
    var_at_inf,
    var_sremp,
    var_sremp_inf,
    varp,
)

from helpers import linear_factor_poly, rand_int_poly, rand_nonzero_poly


def F(a, b=1):
    return Fraction(a, b)


def test_var_skips_zeros():
    assert var([F(1), F(0), F(-1)]) == 1
    assert var([F(1), F(-1), F(1)]) == 2
    assert var([F(0), F(0)]) == 0
    assert var([]) == 0
    assert var([F(2), F(0), F(3), F(-1)]) == 1


def test_sremp_shape():
    rng = random.Random(200)
    for _ in range(200):
        p = rand_int_poly(rng, 6)
        q = rand_int_poly(rng, 6)
        seq = sremp(p, q)
        if p.is_zero:
            assert seq == []
            continue
        assert seq[0] == p
        if q.is_zero:
            assert seq == [p]
            continue
        assert seq[1] == q
        for a, b in zip(seq[1:], seq[2:]):
            assert b.degree < a.degree
        for r1, r2, r3 in zip(seq, seq[1:], seq[2:]):
            assert r3 == -(r1 % r2)
        if len(seq) >= 2:
            assert (seq[-2] % seq[-1]).is_zero


def test_sign_at_inf():
    p = Poly([F(0), F(0), F(1)])  # x^2
    assert sign_at_inf(p, POS_INF) == 1
    assert sign_at_inf(p, NEG_INF) == 1
    q = Poly([F(0), F(1)])  # x
    assert sign_at_inf(q, POS_INF) == 1
    assert sign_at_inf(q, NEG_INF) == -1


def test_var_at_inf_matches_far_evaluation():
    rng = random.Random(201)
    for _ in range(200):
        seq = [rand_nonzero_poly(rng, 5) for _ in range(rng.randint(1, 5))]
        b = max(p.cauchy_bound() for p in seq) + 1
        for _ in range(rng.randrange(3)):
            seq.insert(rng.randrange(len(seq) + 1), Poly([]))
        assert var_at_inf(seq, POS_INF) == var([p.eval(b) for p in seq])
        assert var_at_inf(seq, NEG_INF) == var([p.eval(-b) for p in seq])
        # a None end of varp is the infinity on its side
        a = F(1, 3)
        assert varp(None, None, seq) == varp(-b, b, seq)
        assert varp(a, None, seq) == varp(a, b, seq)
        assert varp(None, a, seq) == varp(-b, a, seq)
    with pytest.raises(ValueError):
        var_at_inf([], 0)


def test_var_sremp_inf_counts_distinct_roots():
    rng = random.Random(202)
    for _ in range(200):
        p, roots = linear_factor_poly(rng)
        assert var_sremp_inf(p, p.deriv()) == len(roots)


def test_var_sremp_interval_counts_match_membership():
    rng = random.Random(203)
    for _ in range(200):
        p, roots = linear_factor_poly(rng)
        b = nonvanishing_endpoints(p, p.deriv())
        a = -b
        # shrink to a random subinterval with non-root endpoints
        lo = a + Fraction(rng.randint(0, 3), 7)
        hi = b - Fraction(rng.randint(0, 3), 7)
        if any(r in (lo, hi) for r in roots) or lo >= hi:
            lo, hi = a, b
        try:
            count = var_sremp(lo, hi, p, p.deriv())
        except ValueError:
            lo, hi = a, b
            count = var_sremp(lo, hi, p, p.deriv())
        assert count == sum(1 for r in roots if lo < r < hi)


def test_var_sremp_rejects_root_endpoints():
    p = Poly.from_roots([F(0)])
    with pytest.raises(ValueError):
        var_sremp(F(0), F(1), p, p.deriv())


def test_var_sremp_scaling_invariance():
    rng = random.Random(204)
    for _ in range(100):
        p = rand_nonzero_poly(rng, 6)
        if p.degree < 1:
            continue
        q = rand_int_poly(rng, 4)
        c = Fraction(rng.randint(1, 9))
        assert var_sremp_inf(p.scale(c), q) == var_sremp_inf(p, q)
        assert var_sremp_inf(p, q.scale(c)) == var_sremp_inf(p, q)


def test_tarski_query_on_rational_roots():
    rng = random.Random(205)
    for _ in range(150):
        p, roots = linear_factor_poly(rng)
        q = rand_int_poly(rng, 4)
        expected = sum(
            (q.eval(r) > 0) - (q.eval(r) < 0) for r in roots
        )
        assert tarski_query(p, q) == expected


def test_tarski_query_zero_polynomial():
    with pytest.raises(ValueError):
        tarski_query(Poly(), Poly([F(1)]))


def test_nonvanishing_endpoints_property():
    rng = random.Random(206)
    for _ in range(80):
        p = rand_nonzero_poly(rng, 5)
        q = rand_int_poly(rng, 4)
        b = nonvanishing_endpoints(p, q)
        for elem in sremp(p, q):
            assert elem.eval(b) != 0 and elem.eval(-b) != 0
            assert b > elem.cauchy_bound()
