import hashlib
import random
from fractions import Fraction

import pytest

from tarski.intervals import INF, Interval, closed, finite, format_interval, full_line, is_empty, mem, open_
from tarski.isolate import (
    count_roots,
    isolate_roots,
    refine,
    sample_right,
    sign_at_root,
)
from tarski.poly import Poly
from tarski.rational import sgr

from helpers import linear_factor_poly, rand_fraction, rand_int_poly, rand_nonzero_poly


def F(a, b=1):
    return Fraction(a, b)


def test_count_roots_known_cases():
    p = Poly([F(-2), F(0), F(1)])  # x^2 - 2
    assert count_roots(p, full_line()) == 2
    assert count_roots(p, open_(F(0), F(2))) == 1
    assert count_roots(p, open_(F(2), F(3))) == 0
    # closed endpoint at a root counts, open does not
    q = Poly.from_roots([F(1)])
    assert count_roots(q, closed(F(1), F(2))) == 1
    assert count_roots(q, open_(F(1), F(2))) == 0
    assert count_roots(q, closed(F(1), F(1))) == 1


def test_count_roots_matches_membership_on_rational_roots():
    rng = random.Random(400)
    for _ in range(150):
        p, roots = linear_factor_poly(rng)
        a = rand_fraction(rng, 8)
        b = a + F(rng.randint(0, 6), rng.randint(1, 3))
        i = closed(a, b) if rng.random() < 0.5 else open_(a, b)
        assert count_roots(p, i) == sum(1 for r in roots if mem(r, i))


def test_count_roots_with_repeated_roots_on_the_ends():
    # Both ends are roots of multiplicity 2 or 3; every open/closed/infinite
    # combination of bounds is checked against membership.
    rng = random.Random(407)
    for _ in range(60):
        p, roots = linear_factor_poly(rng, max_factors=3)
        a, b = sorted(rng.sample(sorted({rand_fraction(rng, 6) for _ in range(8)} - set(roots)), 2))
        for r, m in ((a, rng.choice([2, 3])), (b, rng.choice([2, 3]))):
            p = p * Poly([-r, F(1)]) ** m
            roots[r] = m
        for lo in (finite(a, False), finite(a, True), INF):
            for hi in (finite(b, False), finite(b, True), INF):
                i = Interval(lo, hi)
                assert count_roots(p, i) == sum(1 for r in roots if mem(r, i))


def test_isolate_roots_structure():
    rng = random.Random(401)
    for _ in range(120):
        p = rand_nonzero_poly(rng, 6)
        cb = p.cauchy_bound()
        out = isolate_roots(p)
        assert len(out) == count_roots(p, full_line()) if p.degree >= 1 else out == []
        prev_hi = None
        for root in out:
            iso = root.interval
            assert count_roots(p, iso) == 1
            # inside the Cauchy-bound box
            assert -cb <= iso.lo.value and iso.hi.value <= cb
            # sorted and pairwise disjoint
            if prev_hi is not None:
                assert iso.lo.value >= prev_hi
            prev_hi = iso.hi.value


def test_isolate_roots_recovers_rational_roots_and_multiplicities():
    rng = random.Random(402)
    for _ in range(80):
        p, roots = linear_factor_poly(rng)
        out = isolate_roots(p)
        assert len(out) == len(roots)
        for root, (r, mult) in zip(out, sorted(roots.items())):
            assert mem(r, root.interval)
            assert root.multiplicity == mult


def test_isolate_roots_zero_and_constant():
    with pytest.raises(ValueError):
        isolate_roots(Poly())
    assert isolate_roots(Poly([F(5)])) == []


def test_refine_reaches_eps_within_40_bisections():
    rng = random.Random(403)
    eps = F(1, 10 ** 6)
    for _ in range(40):
        p = rand_nonzero_poly(rng, 5)
        if p.degree < 1:
            continue
        for root in isolate_roots(p):
            iso = root.interval
            width = iso.hi.value - iso.lo.value
            # each bisection halves the width, so 40 always suffice from
            # a Cauchy-bound box of this size
            bisections = 0
            while width > eps:
                width /= 2
                bisections += 1
            assert bisections <= 40
            tight = refine(p, iso, eps)
            assert tight.hi.value - tight.lo.value <= eps
            assert count_roots(p, tight) == 1


def test_refine_validates_input():
    p = Poly([F(-2), F(0), F(1)])
    with pytest.raises(ValueError):
        refine(p, open_(F(0), F(2)), F(0))
    with pytest.raises(ValueError):
        refine(p, open_(F(5), F(6)), F(1, 100))


def test_refine_boxes_a_root_on_a_closed_end():
    # x^2 - x on [0, 1/2]: the root 0 is the closed lower end
    p = Poly([F(0), F(-1), F(1)])
    tight = refine(p, closed(F(0), F(1, 2)), F(1, 100))
    assert tight.hi.value - tight.lo.value <= F(1, 100)
    assert mem(F(0), tight) and count_roots(p, tight) == 1


def test_refine_with_a_root_on_an_open_end():
    # x^2 - x on ]0, 2[: the root 0 is an open end, the isolated root is 1
    p = Poly([F(0), F(-1), F(1)])
    tight = refine(p, open_(F(0), F(2)), F(1, 100))
    assert tight.hi.value - tight.lo.value <= F(1, 100)
    assert mem(F(1), tight) and count_roots(p, tight) == 1


def test_refine_at_roots_of_even_multiplicity():
    # p keeps its sign across a root of even multiplicity; only the
    # square-free part changes sign there.
    rng = random.Random(408)
    eps = F(1, 10 ** 6)
    for _ in range(40):
        p, roots = linear_factor_poly(rng, max_factors=3, max_mult=1)
        for r in rng.sample(sorted(roots), rng.randint(1, len(roots))):
            extra = rng.choice([1, 3])
            p = p * Poly([-r, F(1)]) ** extra
            roots[r] += extra
        for root, r in zip(isolate_roots(p), sorted(roots)):
            tight = refine(p, root.interval, eps)
            assert tight.hi.value - tight.lo.value <= eps
            assert mem(r, tight)


def test_sign_at_root_exact():
    # root of x^2 - 2 in ]1, 2[ is sqrt(2)
    p = Poly([F(-2), F(0), F(1)])
    iso = open_(F(1), F(2))
    assert sign_at_root(p, iso, Poly([F(-1), F(1)])) == 1      # x - 1 > 0
    assert sign_at_root(p, iso, Poly([F(-3), F(1)])) == -1     # x - 3 < 0
    assert sign_at_root(p, iso, Poly([F(-2), F(0), F(1)])) == 0  # shared root
    assert sign_at_root(p, iso, Poly([F(-3, 2), F(1)])) == -1  # sqrt(2) < 3/2
    assert sign_at_root(p, iso, Poly()) == 0


def test_sign_at_root_random_rational_roots():
    rng = random.Random(404)
    for _ in range(120):
        p, roots = linear_factor_poly(rng, max_factors=3)
        q = rand_int_poly(rng, 4)
        for root, (r, _) in zip(isolate_roots(p), sorted(roots.items())):
            assert sign_at_root(p, root.interval, q) == sgr(q.eval(r))


def test_sign_at_root_rejects_a_root_on_a_closed_end():
    # x^2 - x has roots 0 and 1; [0, 1/2] holds 0, on its closed end
    p = Poly([F(0), F(-1), F(1)])
    with pytest.raises(ValueError):
        sign_at_root(p, closed(F(0), F(1, 2)), Poly([F(-1, 4), F(1)]))


def test_sign_at_root_rejects_infinite_bounds():
    with pytest.raises(ValueError):
        sign_at_root(Poly([F(-2), F(1)]), full_line(), Poly([F(1)]))


def _below_sqrt(a, s, k):
    """a < s*sqrt(k) for a rational a, s = +-1 and a non-square k > 0."""
    return a < 0 or a * a < k if s > 0 else a < 0 and a * a > k


def _sign_at_sqrt(q, s, k):
    """Exact sign of q(s*sqrt(k)) = A + B*s*sqrt(k), comparing A^2 with k*B^2."""
    a = sum(c * k ** (j // 2) for j, c in enumerate(q.coeffs) if j % 2 == 0)
    b = s * sum(c * k ** (j // 2) for j, c in enumerate(q.coeffs) if j % 2 == 1)
    if sgr(a) * sgr(b) >= 0:
        return sgr(a) or sgr(b)
    return sgr(a) if a * a > k * b * b else sgr(b)


def test_sign_at_root_and_multiplicity_at_irrational_roots():
    # p = (x^2 - k)^m * prod (x - r_i): the roots +-sqrt(k) are irrational,
    # and the reference sign there is exact arithmetic in Q(sqrt(k)).
    rng = random.Random(406)
    for _ in range(60):
        k = rng.choice([F(2), F(3), F(5), F(7), F(2, 3), F(5, 2)])
        m = rng.choice([1, 1, 2])
        rational = {rand_fraction(rng, 6) for _ in range(rng.randint(0, 2))}
        square = Poly([-k, F(0), F(1)])
        p = Poly.from_roots(sorted(rational)) * square ** m
        q = rand_int_poly(rng, 4)
        if rng.random() < 0.25:
            q = q * square
        for root in isolate_roots(p):
            lo, hi = root.interval.lo.value, root.interval.hi.value
            held = [(s, _sign_at_sqrt(q, s, k), m) for s in (1, -1)
                    if _below_sqrt(lo, s, k) and not _below_sqrt(hi, s, k)]
            held += [(r, sgr(q.eval(r)), 1) for r in rational if lo < r < hi]
            assert len(held) == 1
            _, sign, multiplicity = held[0]
            assert sign_at_root(p, root.interval, q) == sign
            assert root.multiplicity == multiplicity


def test_sample_right_has_no_root_in_between():
    rng = random.Random(405)
    for _ in range(100):
        p, roots = linear_factor_poly(rng)
        x = rng.choice(sorted(roots))
        y = sample_right(p, x)
        assert y > x
        assert p.eval(y) != 0
        assert count_roots(p, open_(x, y)) == 0


def test_sample_right_at_roots_of_even_multiplicity():
    # x is a root of multiplicity 2 or 4 with the next root within 1 of it,
    # so the first candidate y = x + 1 must be halved.
    rng = random.Random(409)
    for _ in range(60):
        p, roots = linear_factor_poly(rng, max_factors=3)
        x = rand_fraction(rng, 6)
        nxt = x + F(rng.randint(1, 9), 10)
        if x in roots or nxt in roots:
            continue
        for r, m in ((x, rng.choice([2, 4])), (nxt, rng.randint(1, 3))):
            p = p * Poly([-r, F(1)]) ** m
            roots[r] = m
        y = sample_right(p, x)
        assert y > x
        assert not any(x < r <= y for r in roots)
        # the sign just right of x, from the factorization
        right = sgr(p.lc) * (-1) ** sum(m for r, m in roots.items() if r > x)
        assert sgr(p.eval(y)) == right


# SHA-1 of the root layer's output on a fixed seeded set: the intervals
# are printed by `tarski roots`, so any change to them must be deliberate.
ROOT_LAYER_DIGEST = "d2a84e840242e62cb96470536113e967713eea27"


def _root_layer_text(p):
    lines = []
    for root in isolate_roots(p):
        tight = refine(p, root.interval, F(1, 10 ** 6))
        lines.append(f"{format_interval(root.interval)} {root.multiplicity} {format_interval(tight)}")
    return "\n".join(lines)


def test_root_layer_output_is_pinned():
    # repeated rational roots times (x^2 - k)^m
    rng = random.Random(410)
    texts = []
    for _ in range(40):
        p, _ = linear_factor_poly(rng, max_factors=3)
        k = rng.choice([F(2), F(3), F(5), F(2, 3), F(7, 2)])
        p = p * Poly([-k, F(0), F(1)]) ** rng.randint(1, 2)
        texts.append(_root_layer_text(p))
    digest = hashlib.sha1("\n\n".join(texts).encode()).hexdigest()
    assert digest == ROOT_LAYER_DIGEST
