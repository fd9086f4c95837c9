import gc
import random
import weakref
from fractions import Fraction

import pytest

from tarski.formula import (
    FALSE,
    TRUE,
    Add,
    Bool,
    Const,
    Equal,
    Inv,
    Lt,
    Mul,
    Opp,
    Var,
    eval_term,
    qf_eval,
    qf_form,
)
from tarski.lift import (
    MPoly,
    abstrX,
    addF,
    dec,
    dec_strict,
    decF,
    decF_strict,
    derivF,
    eval_poly,
    fold_formula,
    if_cps,
    max_var_degree,
    mulF,
    norm_term,
    oppF,
    powF,
    scaleF,
)
from tarski.poly import Poly
from tarski.rational import sgr
from tarski.signdet import count_with_signs, sign_vectors
from tarski.sturm import NEG_INF, POS_INF
from tarski.syntax import term_to_str

from helpers import (
    check_decF_square,
    check_decF_strict_square,
    check_lcoef_square,
    check_monic_square,
    check_pseudo_divmod_square,
    check_sremp_square,
    check_size_square,
    check_var_at_inf_square,
    check_var_sremp_inf_square,
    ground_polyf,
    linear_factor_poly,
    mono_polyf,
    rand_env,
    rand_fraction,
    rand_int_poly,
    rand_polyf,
    rand_qf_formula,
    rand_term,
    sym_polyf,
)


def F(a, b=1):
    return Fraction(a, b)


# -- term normal form and formula folding ---------------------------------


def test_norm_term_preserves_semantics():
    rng = random.Random(700)
    for _ in range(300):
        t = rand_term(rng, 3, 2)
        n = norm_term(t)
        for _ in range(4):
            env = rand_env(rng, 2)
            assert eval_term(env, t) == eval_term(env, n)


def test_norm_term_identifies_equal_polynomials():
    x, y = Var(0), Var(1)
    assert norm_term(Add(x, y)) == norm_term(Add(y, x))
    assert norm_term(Mul(Add(x, y), Add(x, y))) == norm_term(
        Add(Add(Mul(x, x), Mul(Const(F(2)), Mul(x, y))), Mul(y, y))
    )


def test_fold_formula_ground_atoms():
    assert fold_formula(Equal(Const(F(2)), Const(F(2)))) == TRUE
    assert fold_formula(Lt(Const(F(3)), Const(F(2)))) == FALSE
    f = Equal(Add(Var(0), Const(F(0))), Var(0))
    assert fold_formula(f) == TRUE


def test_fold_formula_preserves_semantics():
    rng = random.Random(701)
    for _ in range(300):
        f = rand_qf_formula(rng, 3, 2)
        g = fold_formula(f)
        for _ in range(4):
            env = rand_env(rng, 2)
            assert qf_eval(env, f) == qf_eval(env, g)


def test_fold_formula_handles_nonpolynomial_atoms():
    f = Lt(Const(F(0)), Inv(Var(0)))
    g = fold_formula(f)
    for v in (F(2), F(0), F(-1)):
        assert qf_eval([v], f) == qf_eval([v], g)


# -- the coefficient type -------------------------------------------------


def _mp(t):
    """A term's value built with MPoly's own operations, in a different
    order from the one the module's term conversion uses."""
    if isinstance(t, Var):
        return MPoly.var(t.index)
    if isinstance(t, Const):
        return MPoly.const(t.value)
    if isinstance(t, Add):
        return _mp(t.right) + _mp(t.left)
    if isinstance(t, Mul):
        return _mp(t.right) * _mp(t.left)
    if isinstance(t, Opp):
        return -_mp(t.arg)
    raise TypeError(t)


def _value(env, m):
    return eval_term(env, m.to_term())


def test_mpoly_ring_operations_commute_with_evaluation():
    rng = random.Random(720)
    for _ in range(300):
        a, b = _mp(rand_term(rng, 3, 3)), _mp(rand_term(rng, 3, 3))
        c = rand_fraction(rng, 5)
        n = rng.randrange(4)
        env = rand_env(rng, 3)
        va, vb = _value(env, a), _value(env, b)
        assert _value(env, a + b) == va + vb
        assert _value(env, -a) == -va
        assert _value(env, a * b) == va * vb
        assert _value(env, a.scale(c)) == c * va
        assert _value(env, a ** n) == va ** n
        g = a.ground()
        assert g is None or g == va
        canon, flip = a.canon()
        vc = _value(env, canon)
        assert sgr(va) == flip * sgr(vc)
        if vc:
            # the canonical value is a rescaling of a, by flip times a positive rational
            assert canon.scale(va / vc) == a and sgr(va / vc) == flip


def test_mpoly_equal_values_hash_equal():
    x, y = Var(0), Var(1)
    a = _mp(Mul(Add(x, y), Add(x, y)))
    b = _mp(Add(Add(Mul(x, x), Mul(Const(F(2)), Mul(y, x))), Mul(y, y)))
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != a + MPoly.const(F(1))
    rng = random.Random(721)
    for _ in range(200):
        t = rand_term(rng, 3, 3)
        a, b = _mp(t), _mp(norm_term(t))
        assert a == b and hash(a) == hash(b)


def test_mpoly_canonical_values_are_interned():
    x, y = Var(0), Var(1)
    a = _mp(Add(Mul(Const(F(2)), x), Mul(Const(F(4)), y)))
    b = _mp(Opp(Add(x, Mul(Const(F(2)), y))))
    (ca, fa), (cb, fb) = a.canon(), b.canon()
    assert ca is cb and (fa, fb) == (1, -1)
    assert ca.canon() == (ca, 1)
    assert ca.to_term() is cb.to_term()
    # the intern table holds its values weakly
    ref = weakref.ref(_mp(Add(Mul(x, Mul(x, y)), Const(F(5, 7)))).canon()[0])
    gc.collect()
    assert ref() is None


def test_mpoly_term_text_matches_norm_term():
    rng = random.Random(722)
    for _ in range(200):
        t = rand_term(rng, 4, 3)
        assert term_to_str(_mp(t).to_term()) == term_to_str(norm_term(t))


def test_max_var_degree():
    x, y = Var(0), Var(1)
    assert max_var_degree(Add(Mul(Mul(x, x), Mul(x, y)), Mul(y, y))) == 3
    assert max_var_degree(Add(Mul(x, x), Opp(Mul(x, x)))) == 0
    assert max_var_degree(Const(F(3))) == 0
    assert max_var_degree(Inv(Var(0))) == 0


# -- DT-function squares: symbolic ring operations ------------------------


def test_dt_function_squares():
    rng = random.Random(702)
    for _ in range(300):
        nv = 2
        p = rand_polyf(rng, 4, nv)
        q = rand_polyf(rng, 4, nv)
        t = rand_term(rng, 1, nv)
        env = rand_env(rng, nv)
        pv, qv = eval_poly(env, p), eval_poly(env, q)
        assert eval_poly(env, addF(p, q)) == pv + qv
        assert eval_poly(env, oppF(p)) == -pv
        assert eval_poly(env, mulF(p, q)) == pv * qv
        assert eval_poly(env, scaleF(t, p)) == pv.scale(eval_term(env, t))
        assert eval_poly(env, derivF(p)) == pv.deriv()
        n = rng.randrange(4)
        assert eval_poly(env, powF(p, n)) == pv ** n


def test_abstrX_square():
    rng = random.Random(703)
    for _ in range(300):
        t = rand_term(rng, 3, 3, const_bias=0.4)
        i = rng.randrange(3)
        p = abstrX(i, t)
        env = rand_env(rng, 3)
        x = env[i]
        # coefficients of p must not mention the abstracted variable
        masked = list(env)
        masked[i] = F(9999)
        assert eval_poly(masked, p).eval(x) == eval_term(env, t)


def test_abstrX_rejects_inv():
    with pytest.raises(ValueError):
        abstrX(0, Inv(Var(0)))


# -- CPS commuting squares ------------------------------------------------


def test_if_cps_square():
    rng = random.Random(704)
    for _ in range(300):
        cond = rand_qf_formula(rng, 2, 1)
        th = rand_qf_formula(rng, 1, 1)
        el = rand_qf_formula(rng, 1, 1)
        f = if_cps(cond, th, el)
        env = rand_env(rng, 1)
        expected = qf_eval(env, th) if qf_eval(env, cond) else qf_eval(env, el)
        assert qf_eval(env, f) == expected
        # a decided condition selects its branch outright
        assert if_cps(TRUE, th, el) == th
        assert if_cps(FALSE, th, el) == el


def test_lcoef_size_squares():
    rng = random.Random(705)
    for _ in range(300):
        p = rand_polyf(rng, 5, 2)
        env = rand_env(rng, 2)
        assert check_lcoef_square(env, p)
        assert check_size_square(env, p)


def test_pseudo_divmod_square():
    rng = random.Random(706)
    for _ in range(300):
        p = rand_polyf(rng, 5, 2)
        q = rand_polyf(rng, 4, 2)
        env = rand_env(rng, 2)
        assert check_pseudo_divmod_square(env, p, q)


def test_sremp_square():
    rng = random.Random(707)
    for _ in range(300):
        p = rand_polyf(rng, 4, 1)
        q = rand_polyf(rng, 3, 1)
        env = rand_env(rng, 1)
        assert check_sremp_square(env, p, q)


def test_var_at_inf_square():
    rng = random.Random(708)
    for _ in range(300):
        sp = [rand_polyf(rng, 3, 1) for _ in range(rng.randrange(4))]
        env = rand_env(rng, 1)
        assert check_var_at_inf_square(env, sp, rng.choice([NEG_INF, POS_INF]))


def test_var_sremp_inf_square():
    rng = random.Random(709)
    for _ in range(300):
        p = rand_polyf(rng, 4, 1)
        q = rand_polyf(rng, 3, 1)
        env = rand_env(rng, 1)
        assert check_var_sremp_inf_square(env, p, q)


def test_monic_square():
    rng = random.Random(710)
    for _ in range(300):
        p = rand_polyf(rng, 5, 2)
        env = rand_env(rng, 2)
        assert check_monic_square(env, p)


# -- the decision procedure and its lifted counterpart --------------------


def test_dec_matches_sign_determination():
    rng = random.Random(711)
    for _ in range(200):
        p = rand_int_poly(rng, 4, 5)
        if p.is_zero or p.degree == 0:
            continue
        sq = [rand_int_poly(rng, 2, 4) for _ in range(rng.randrange(3))]
        expected = count_with_signs(p, sq, (1,) * len(sq)) > 0
        assert dec(p, sq) == expected


def test_dec_strict_on_known_cases():
    x = Poly([F(0), F(1)])
    assert dec_strict([])                              # no constraints
    assert dec_strict([x])                             # x > 0 eventually
    assert dec_strict([-x])                            # -x > 0 towards -oo
    assert dec_strict([x, -x + Poly([F(1)])])          # 0 < x < 1
    assert not dec_strict([x, Poly([F(0)]) - x])       # x > 0 and -x > 0
    assert not dec_strict([Poly([F(-1)])])             # -1 > 0
    # strict witness only in a bounded window: x(1-x) > 0 and x - 2 < 0
    assert dec_strict([x * (Poly([F(1)]) - x)])


def test_dec_strict_matches_exhaustive_signs():
    rng = random.Random(712)
    for _ in range(150):
        sq = [rand_int_poly(rng, 3, 4) for _ in range(rng.randrange(1, 4))]
        if any(q.is_zero for q in sq):
            assert not dec_strict(sq)
            continue
        # oracle: test all roots of the product, midpoints and far points
        prod = Poly([F(1)])
        for q in sq:
            prod = prod * q
        points = [prod.cauchy_bound() + 1, -prod.cauchy_bound() - 1]
        if prod.degree >= 1:
            from tarski.isolate import isolate_roots
            from tarski.intervals import midpoint

            iso = [r.interval for r in isolate_roots(prod)]
            for a, b in zip(iso, iso[1:]):
                points.append((a.hi.value + b.lo.value) / 2)
            for i in iso:
                points.append(midpoint(i))
        expected = any(all(q.eval(pt) > 0 for q in sq) for pt in points)
        assert dec_strict(sq) == expected


def _safe_decF_case(rng):
    """Configurations kept inside the tractable symbolic envelope: at most
    one symbolic constraint, and symbolic main polynomials of degree <= 2
    whenever constraints are present.  The shape with two constraints is
    all-ground, so it short-circuits to dec; the lifted path with two
    constraints is covered by test_decF_two_constraints_lifted."""
    shape = rng.randrange(4)
    if shape == 0:
        return sym_polyf(rng, rng.randrange(1, 6), 1), []
    if shape == 1:
        return sym_polyf(rng, rng.randrange(1, 4), 1), [sym_polyf(rng, rng.randrange(4), 1)]
    if shape == 2:
        return sym_polyf(rng, rng.randrange(1, 4), 1), [ground_polyf(rng, rng.randrange(4))]
    return ground_polyf(rng, rng.randrange(6)), [
        ground_polyf(rng, rng.randrange(4)) for _ in range(rng.randrange(3))
    ]


def test_decF_square():
    rng = random.Random(713)
    for _ in range(60):
        p, sq = _safe_decF_case(rng)
        env = rand_env(rng, 1, bound=4)
        assert check_decF_square(env, p, sq), (p, sq, env)


def test_decF_two_constraints_lifted():
    # exists x. a*x + b = 0 /\ x + c > 0 /\ 1 - x > 0, decided through the
    # 2^2 lifted Tarski queries; a = 0 reaches the degenerate branches.
    a, b, c = Var(0), Var(1), Var(2)
    p = (b, a)
    sq = [(c, Const(F(1))), (Const(F(1)), Const(F(-1)))]
    f = decF(p, sq)
    rng = random.Random(716)
    envs = [[F(0), F(0), F(0)], [F(0), F(0), F(-2)], [F(0), F(1), F(0)], [F(2), F(-1), F(0)]]
    envs += [[F(0)] + rand_env(rng, 2, bound=4) for _ in range(8)]
    envs += [rand_env(rng, 3, bound=4) for _ in range(30)]
    seen = set()
    for env in envs:
        direct = dec(eval_poly(env, p), [eval_poly(env, q) for q in sq])
        assert qf_eval(env, f) == direct, env
        seen.add(direct)
    assert seen == {True, False}


def test_decF_chained_queries_match_dec():
    # decF reuses the subtree of each remaining Tarski query wherever the
    # context agrees with it on every sign fact the subtree read, so a fact
    # read but not recorded would show here as a wrong answer.  One and two
    # constraints, with parametric and single-monomial coefficients; half of
    # the environments zero some parameters, and with them coefficients.
    a, b, c = Var(0), Var(1), Var(2)

    def mono(k, e):  # k * a^e
        return Mul(Const(F(k)), powF((a,), e)[0])

    cases = [
        ((c, b, a), [(Opp(b), Const(F(1))), (Const(F(1)), Const(F(-1)))]),  # a*x^2 + b*x + c = 0 /\ b < x < 1
        ((c, b, Const(F(1))), [(Opp(a), Const(F(1)))]),
        # the sign of a^2 and a^3 read through the fact learned on a
        ((mono(2, 1), mono(2, 2), mono(-1, 2)), [(mono(2, 1), mono(1, 3)), (mono(-3, 2),)]),
        ((mono(-3, 2), mono(1, 2)), [(mono(-3, 2), mono(1, 3)), (mono(1, 2),)]),
    ]
    rng = random.Random(741)
    for _ in range(6):
        for make in (sym_polyf, mono_polyf):
            sq = [make(rng, rng.randrange(1, 3), 3) for _ in range(rng.randrange(1, 3))]
            cases.append((make(rng, rng.randrange(2, 4), 3), sq))
    zeroed = 0
    for p, sq in cases:
        f = decF(p, sq)
        envs = [rand_env(rng, 3, bound=3) for _ in range(12)]
        envs += [[v if rng.random() < 0.5 else F(0) for v in env] for env in envs]
        for env in envs:
            pv = eval_poly(env, p)
            zeroed += pv.size < len(p)
            assert qf_eval(env, f) == dec(pv, [eval_poly(env, q) for q in sq]), (p, sq, env)
    assert zeroed >= 20


def test_context_reads_are_recorded():
    # decF's memo is sound only if every context read lands in the innermost
    # open read set, the per-variable facts of a single monomial included.
    from tarski import lift

    a, b = MPoly.var(0), MPoly.var(1)
    mono = MPoly({((0, 2), (1, 1)): F(-3)})  # -3*a^2*b
    both = mono.canon()[0]
    sum_ = a + b
    for read, keys in [
        (lambda: lift._possible_signs({}, mono), {both, a, b}),
        (lambda: lift._possible_signs({}, sum_), {sum_}),
        (lambda: lift._learn({}, mono, frozenset((1,))), {both, a, b}),
        (lambda: lift._learn({}, a, frozenset((-1,))), {a}),
        (lambda: lift._learn({}, sum_, frozenset((0,))), {sum_}),
    ]:
        lift._reads.append(set())
        try:
            read()
        finally:
            recorded = lift._reads.pop()
        assert recorded == keys
    assert not lift._reads


def test_lifted_results_are_fold_fixpoints():
    # q_elim joins what decF and decF_strict return without folding it
    # again, so fold_formula must leave their results unchanged.  Monomial
    # coefficients reach the context's single-monomial sign reasoning.
    a, b = Var(0), Var(1)
    cases = [((Mul(b, b), Const(F(0)), Mul(a, a)), [])]  # a^2*x^2 + b^2
    rng = random.Random(731)
    for _ in range(40):
        cases.append(_safe_decF_case(rng))
        sq = [mono_polyf(rng, rng.randrange(1, 3), 2) for _ in range(rng.randrange(2))]
        cases.append((mono_polyf(rng, rng.randrange(1, 4), 2), sq))
    for p, sq in cases:
        for r in (decF(p, sq), decF_strict([p]), decF_strict([oppF(p)])):
            assert fold_formula(r) == r, (p, sq)


def test_decF_output_is_quantifier_free():
    p = (Var(0), Var(1), Const(F(1)))
    f = decF(p, [])
    assert qf_form(f)


def test_decF_strict_square():
    rng = random.Random(714)
    for _ in range(60):
        shape = rng.randrange(3)
        if shape == 0:
            sq = [sym_polyf(rng, rng.randrange(5), 1)]
        elif shape == 1:
            sq = [sym_polyf(rng, rng.randrange(1, 3), 1)]
        else:
            sq = [ground_polyf(rng, rng.randrange(4)) for _ in range(rng.randrange(3))]
        env = rand_env(rng, 1, bound=4)
        assert check_decF_strict_square(env, sq), (sq, env)


def test_decF_rejects_inv():
    with pytest.raises(ValueError):
        decF((Inv(Var(0)),), [])
    with pytest.raises(ValueError):
        decF_strict([(Inv(Var(0)),)])


def test_decF_accepts_constant_inv():
    # -1 + x/2 has the root 2; a constant Inv normalizes to a rational
    assert decF((Const(F(-1)), Inv(Const(F(2)))), []) == TRUE
    assert decF_strict([(Inv(Const(F(-2))),)]) == FALSE


def test_decF_parametric_quadratic_sign():
    # exists x. x^2 + bx + c = 0 must match the discriminant b^2 - 4c >= 0
    b, c = Var(0), Var(1)
    p = (c, b, Const(F(1)))
    f = decF(p, [])
    rng = random.Random(715)
    for _ in range(200):
        env = rand_env(rng, 2, bound=6)
        assert qf_eval(env, f) == (env[0] ** 2 - 4 * env[1] >= 0)
