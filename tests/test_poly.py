import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarski.poly import Poly

from helpers import RefPoly, rand_fraction, rand_int_poly, rand_nonzero_poly, rand_rational_poly


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


coeff_lists = st.lists(st.fractions(max_denominator=30), max_size=8)


def test_normalization_drops_trailing_zeros():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0, 0).is_zero
    assert Poly().size == 0 and Poly().degree == -1


def test_degree_size_lc():
    p = P(3, 0, 5)
    assert p.degree == 2 and p.size == 3 and p.lc == 5
    assert Poly().lc == 0


@given(coeff_lists, coeff_lists)
def test_add_mul_agree_with_evaluation(cs, ds):
    p, q = Poly(cs), Poly(ds)
    for x in (Fraction(0), Fraction(2), Fraction(-3, 2)):
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)
        assert (p - q).eval(x) == p.eval(x) - q.eval(x)
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)
        assert (-p).eval(x) == -p.eval(x)


def test_scale_shift_pow():
    p = P(1, 1)
    assert p.scale(Fraction(3)) == P(3, 3)
    assert p.shift(2) == P(0, 0, 1, 1)
    assert p ** 2 == P(1, 2, 1)
    assert p ** 0 == P(1)


def test_deriv():
    assert P(5, 3, 0, 2).deriv() == P(3, 0, 6)
    assert P(7).deriv().is_zero


def test_divmod_spec():
    rng = random.Random(100)
    for _ in range(300):
        p = rand_int_poly(rng, 8)
        q = rand_nonzero_poly(rng, 5)
        quot, rem = p.divmod(q)
        assert p == quot * q + rem
        assert rem.is_zero or rem.size < q.size


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        P(1, 1).divmod(Poly())


def test_pseudo_divmod_spec():
    rng = random.Random(101)
    for _ in range(300):
        p = rand_int_poly(rng, 8)
        q = rand_nonzero_poly(rng, 5)
        res = p.pseudo_divmod(q)
        assert p.scale(res.scalp) == res.quot * q + res.rem
        assert res.rem.is_zero or res.rem.size < q.size
        assert res.scalp == q.lc ** max(0, p.size - q.size + 1)


def test_pseudo_divmod_worked_instance():
    # 4 * (2X^2 + 3) = (4X - 2) * (2X + 1) + 14
    p = P(3, 0, 2)
    q = P(1, 2)
    res = p.pseudo_divmod(q)
    assert res.scalp == 4
    assert res.quot == P(-2, 4)
    assert res.rem == P(14)


def test_gcd():
    a = P(-1, 0, 1)      # (x-1)(x+1)
    b = P(-1, 1) * P(2, 1)
    assert a.gcd(b) == P(-1, 1)
    assert P(0).gcd(P(0)).is_zero
    rng = random.Random(102)
    for _ in range(100):
        p = rand_int_poly(rng, 4)
        q = rand_int_poly(rng, 4)
        g = p.gcd(q)
        if g.is_zero:
            assert p.is_zero and q.is_zero
        else:
            assert (p % g).is_zero and (q % g).is_zero
            assert g.lc == 1


def test_squarefree_part():
    p = P(-1, 1) ** 3 * P(-2, 1)
    sf = p.squarefree_part()
    assert sf == P(-1, 1) * P(-2, 1)
    assert sf.gcd(sf.deriv()).degree == 0


def test_squarefree_decomposition():
    rng = random.Random(103)
    for _ in range(60):
        p = rand_nonzero_poly(rng, 6, 5)
        if p.degree < 1:
            continue
        decomposition = p.squarefree_decomposition()
        rebuilt = Poly.const(p.lc)
        for f, i in decomposition:
            assert f.lc == 1 and f.degree >= 1
            assert f.gcd(f.deriv()).degree == 0
            rebuilt = rebuilt * f ** i
        assert rebuilt == p
        for (f1, _), (f2, _) in zip(decomposition, decomposition[1:]):
            assert f1.gcd(f2).degree == 0


def test_mu_multiplicity():
    p = P(-1, 1) ** 3 * P(1, 1)
    assert p.mu(Fraction(1)) == 3
    assert p.mu(Fraction(-1)) == 1
    assert p.mu(Fraction(5)) == 0


def test_from_roots_and_eval():
    roots = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    p = Poly.from_roots(roots)
    assert p.lc == 1 and p.degree == 3
    for r in roots:
        assert p.eval(r) == 0


def test_cauchy_bound_dominates_roots():
    rng = random.Random(104)
    for _ in range(100):
        roots = [rand_fraction(rng, 8) for _ in range(rng.randint(1, 5))]
        p = Poly.from_roots(roots).scale(rand_fraction(rng, 5) or Fraction(1))
        cb = p.cauchy_bound()
        for r in roots:
            assert -cb < r < cb


def test_monic_transform_postconditions():
    rng = random.Random(105)
    for _ in range(200):
        p = rand_nonzero_poly(rng, 6)
        if p.size < 2:
            continue
        s, lead = p.monic_transform()
        assert s.lc == 1
        assert s.size == p.size
        assert lead == p.lc
        n = p.degree
        for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            # s(lead*x) = lead^(size-2) * p(x), so roots map through x -> lead*x
            assert s.eval(lead * x) == lead ** (n - 1) * p.eval(x)


def test_monic_transform_requires_nonconstant():
    with pytest.raises(ValueError):
        P(3).monic_transform()


# -- the integer kernel against the Fraction reference ----------------------


def ref(p: Poly) -> RefPoly:
    return RefPoly(p.coeffs)


def assert_normal(p: Poly):
    assert p.den > 0
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1
    assert p == Poly(p.coeffs)


def agrees(p: Poly, r: RefPoly) -> bool:
    assert_normal(p)
    return p.coeffs == r.coeffs


def test_normal_form_is_structural():
    p, q = Poly([Fraction(2, 4), 1]), Poly([Fraction(1, 2), 1])
    assert p == q and hash(p) == hash(q)
    assert (p.num, p.den) == ((1, 2), 2)
    assert Poly([Fraction(1, 2)]) * Poly([2]) == Poly([1])
    assert (P(1, 2) - P(1, 2)).num == () and Poly().den == 1
    for c in Poly([Fraction(6, 4), Fraction(-10, 15), 0, Fraction(7, 21)]).coeffs:
        assert isinstance(c, Fraction) and math.gcd(c.numerator, c.denominator) == 1


def test_representation_is_read_only():
    p = P(1, 2)
    for field in ("num", "den", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, field, getattr(p, field))


def test_divmod_skips_zero_leading_terms():
    # x^4 + 1 = (x^2 - 1)(x^2 + 1) + 2: the x^3 and x^1 steps vanish
    quot, rem = P(1, 0, 0, 0, 1).divmod(P(1, 0, 1))
    assert quot == P(-1, 0, 1) and rem == P(2)
    a, b = Poly([Fraction(1, 3), 0, 0, Fraction(-5, 7)]), Poly([Fraction(1, 5), 0, Fraction(-2, 9)])
    quot, rem = a.divmod(b)
    rquot, rrem = ref(a).divmod(ref(b))
    assert agrees(quot, rquot) and agrees(rem, rrem)
    assert quot * b + rem == a


def test_ring_ops_match_fraction_reference():
    rng = random.Random(110)
    for _ in range(300):
        p, q = rand_rational_poly(rng), rand_rational_poly(rng)
        rp, rq = ref(p), ref(q)
        assert agrees(p + q, rp + rq)
        assert agrees(p - q, rp - rq)
        assert agrees(-p, RefPoly([-c for c in rp.coeffs]))
        assert agrees(p * q, rp * rq)
        assert agrees(p.deriv(), rp.deriv())
        for x in (Fraction(0), Fraction(-1), Fraction(7, 3), rand_fraction(rng, 10 ** 12)):
            assert p.eval(x) == rp.eval(x)


def test_division_and_gcd_match_fraction_reference():
    rng = random.Random(111)
    for _ in range(200):
        p, q = rand_rational_poly(rng), rand_rational_poly(rng, 8)
        if rng.random() < 0.3:
            p = p * q + rand_rational_poly(rng, 3)
        rp, rq = ref(p), ref(q)
        if q.is_zero:
            with pytest.raises(ZeroDivisionError):
                p.divmod(q)
        else:
            quot, rem = p.divmod(q)
            rquot, rrem = rp.divmod(rq)
            assert agrees(quot, rquot) and agrees(rem, rrem)
        assert agrees(p.gcd(q), rp.gcd(rq))


def test_squarefree_decomposition_matches_fraction_reference():
    rng = random.Random(112)
    for _ in range(40):
        p = rand_rational_poly(rng, 4)
        for _ in range(rng.randint(0, 2)):
            p = p * rand_rational_poly(rng, 3) ** rng.randint(1, 3)
        if p.is_zero:
            with pytest.raises(ValueError):
                p.squarefree_decomposition()
            continue
        got = p.squarefree_decomposition()
        want = ref(p).squarefree_decomposition()
        assert [k for _, k in got] == [k for _, k in want]
        assert all(agrees(f, rf) for (f, _), (rf, _) in zip(got, want))
