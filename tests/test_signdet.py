import itertools
import random
from fractions import Fraction

import pytest

from tarski.poly import Poly
from tarski.rational import sgr
from tarski.signdet import (
    MatrixQ,
    constraints,
    count_with_signs,
    ctmat1,
    cvec,
    exponent_vectors,
    first_count_weights,
    sign_counts,
    sign_vectors,
    solve_counts,
    solve_tvec,
    tensor_pow,
    tvec,
)

from helpers import linear_factor_poly, rand_fraction, rand_int_poly


def F(a, b=1):
    return Fraction(a, b)


def mat_vec_left(v, m):
    """Row vector times matrix."""
    return [sum(v[i] * m.at(i, j) for i in range(m.rows)) for j in range(m.cols)]


def test_ctmat1_literal_and_det():
    m = ctmat1()
    assert [[m.at(i, j) for j in range(3)] for i in range(3)] == [
        [1, 1, 1],
        [-1, 1, 1],
        [0, 0, 1],
    ]
    assert m.det() == 2


def test_orderings():
    assert sign_vectors(1) == [(1,), (-1,), (0,)]
    assert exponent_vectors(1) == [(1,), (2,), (0,)]
    assert sign_vectors(0) == [()]
    # head polynomial is the most significant coordinate
    assert sign_vectors(2)[0] == (1, 1)
    assert sign_vectors(2)[1] == (1, -1)
    assert sign_vectors(2)[3] == (-1, 1)


def test_tensor_pow_shapes_and_det():
    base = ctmat1()
    for n in range(4):
        m = tensor_pow(base, n)
        assert m.rows == m.cols == 3 ** n
        # det(A (x) B) = det(A)^rows(B) * det(B)^rows(A)
        expected = Fraction(2) ** (n * 3 ** (n - 1)) if n else Fraction(1)
        assert m.det() == expected
    # Kronecker square spot check: entry ((i1,i2),(j1,j2)) = a[i1,j1]*a[i2,j2]
    m2 = tensor_pow(base, 2)
    for i1 in range(3):
        for i2 in range(3):
            for j1 in range(3):
                for j2 in range(3):
                    assert m2.at(3 * i1 + i2, 3 * j1 + j2) == base.at(i1, j1) * base.at(i2, j2)


def rand_points(rng, n=6):
    out = set()
    for _ in range(n):
        out.add(rand_fraction(rng, 6))
    return sorted(out)


def test_tvec_cvec_base_case():
    rng = random.Random(500)
    for _ in range(200):
        z = rand_points(rng)
        q = rand_int_poly(rng, 4)
        assert tvec(z, [q]) == mat_vec_left(cvec(z, [q]), ctmat1())


def test_tvec_cvec_tensor_identity():
    rng = random.Random(501)
    for n in range(4):
        for _ in range(25):
            z = rand_points(rng, 5)
            sq = [rand_int_poly(rng, 3) for _ in range(n)]
            assert tvec(z, sq) == mat_vec_left(cvec(z, sq), tensor_pow(ctmat1(), n))


def test_solve_counts_reproduces_brute_force():
    rng = random.Random(502)
    for n in range(4):
        for _ in range(20):
            z = rand_points(rng, 5)
            sq = [rand_int_poly(rng, 3) for _ in range(n)]
            counts = solve_counts(tvec(z, sq), n)
            for sv in sign_vectors(n):
                assert counts[sv] == constraints(z, sq, sv)


def test_solve_tvec_inverts_dense_tensor_power():
    rng = random.Random(505)
    for n in range(5):
        m = tensor_pow(ctmat1(), n)
        for _ in range(10):
            cv = [rng.randint(-20, 20) for _ in range(3 ** n)]
            assert solve_tvec(mat_vec_left(cv, m), n) == cv


def test_solve_counts_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        solve_counts([1, 0, 0], 1)  # no nonnegative integer solution


def test_first_count_weights():
    rng = random.Random(503)
    for n in range(4):
        weights = first_count_weights(n)
        assert len(weights) == 3 ** n
        nonzero = {eps: w for eps, w in zip(exponent_vectors(n), weights) if w}
        assert set(nonzero) == set(itertools.product((1, 2), repeat=n))
        assert set(nonzero.values()) == {F(1, 2 ** n)}
        for _ in range(10):
            z = rand_points(rng, 5)
            sq = [rand_int_poly(rng, 3) for _ in range(n)]
            tv = tvec(z, sq)
            combo = sum(w * v for w, v in zip(weights, tv))
            assert combo == constraints(z, sq, (1,) * n)


def test_count_with_signs_on_rational_roots():
    rng = random.Random(504)
    for _ in range(100):
        p, roots = linear_factor_poly(rng, max_factors=4)
        n = rng.randint(0, 2)
        sq = [rand_int_poly(rng, 3) for _ in range(n)]
        counts = sign_counts(p, sq)
        assert list(counts) == sign_vectors(n)
        for sv in sign_vectors(n):
            expected = sum(
                1 for r in roots if all(sgr(q.eval(r)) == s for q, s in zip(sq, sv))
            )
            assert counts[sv] == expected
            assert count_with_signs(p, sq, sv) == expected


def test_sign_counting_argument_checks():
    with pytest.raises(ValueError):
        solve_tvec([1, 2], 1)
    with pytest.raises(ValueError):
        sign_counts(Poly([]), [])
    with pytest.raises(ValueError):
        count_with_signs(Poly([]), [], ())
    with pytest.raises(ValueError):
        count_with_signs(Poly([F(-1), F(0), F(1)]), [Poly([F(0), F(1)])], ())


def test_matrixq_shape_validation():
    with pytest.raises(ValueError):
        MatrixQ(2, 2, (Fraction(1),))
    with pytest.raises(ValueError):
        MatrixQ(1, 2, (Fraction(1), Fraction(2))).det()
