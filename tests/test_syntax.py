import random
from fractions import Fraction

import pytest

from tarski import formula as F
from tarski.poly import Poly
from tarski.syntax import (
    ParseError,
    formula_from_json,
    formula_to_json,
    formula_to_str,
    parse_formula,
    parse_poly,
    parse_term,
    poly_to_json,
    poly_to_str,
    term_from_json,
    term_to_json,
    term_to_str,
)

from helpers import rand_env, rand_formula, rand_term_with_inv


def Q(a, b=1):
    return Fraction(a, b)


def test_parse_term_basic():
    t, names = parse_term("x^2 + 3*y - 1/2")
    assert names == ["x", "y"]
    assert F.eval_term([Q(2), Q(1)], t) == 4 + 3 - Q(1, 2)


def test_parse_division_uses_inv():
    t, _ = parse_term("1/x")
    assert F.eval_term([Q(4)], t) == Q(1, 4)
    assert F.eval_term([Q(0)], t) == 0


def test_parse_formula_connectives_and_sugar():
    f, names = parse_formula("x > 0 /\\ x <= 1 \\/ ~(x = 2) -> x != 3")
    assert names == ["x"]
    assert F.qf_form(f)
    g, _ = parse_formula("x >= 1")
    assert g == F.Le(F.Const(Q(1)), F.Var(0))


def test_parse_formula_quantifiers_and_names():
    f, names = parse_formula("exists x. forall y. x*y = y*x")
    assert isinstance(f, F.Exists)
    assert isinstance(f.body, F.Forall)
    assert F.free_vars(f) == set()


def test_parse_formula_shadowing():
    f, names = parse_formula("x > 0 /\\ (exists x. x = 0)")
    assert F.free_vars(f) == {0}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_formula("x >")
    with pytest.raises(ParseError):
        parse_formula("x = 1 extra")
    with pytest.raises(ParseError):
        parse_formula("x # 1")
    try:
        parse_formula("exists x.")
    except ParseError as exc:
        assert "column" in str(exc)


def test_formula_print_parse_round_trip():
    rng = random.Random(800)
    trips = 0
    while trips < 500:
        f0 = rand_formula(rng, 3, 2)
        # canonicalize through one print/parse cycle, then require the
        # round trip to be the identity on the AST
        try:
            f1, names = parse_formula(formula_to_str(f0))
        except ParseError:
            raise AssertionError(f"printer emitted unparsable text for {f0!r}")
        f2, _ = parse_formula(formula_to_str(f1, names), list(names))
        assert f2 == f1
        trips += 1


def test_term_print_parse_round_trip():
    rng = random.Random(801)
    for _ in range(300):
        t0 = rand_term_with_inv(rng, 3, 2)
        t1, names = parse_term(term_to_str(t0))
        # printing is semantics-preserving even when reparsing renumbers
        for _ in range(4):
            env = rand_env(rng, 2)
            remapped = [env[0] if n == "x0" else env[1] for n in names] or env
            assert F.eval_term(env, t0) == F.eval_term(remapped, t1)


def test_json_round_trip():
    rng = random.Random(802)
    for _ in range(300):
        f = rand_formula(rng, 3, 2)
        assert formula_from_json(formula_to_json(f)) == f
        t = rand_term_with_inv(rng, 2, 2)
        assert term_from_json(term_to_json(t)) == t


def test_json_rejects_unknown_nodes():
    with pytest.raises(ValueError):
        formula_from_json({"node": "Xor"})
    with pytest.raises(ValueError):
        term_from_json({"node": "Div"})


def test_parse_poly():
    p = parse_poly("x^2 - 2")
    assert p == Poly([Q(-2), Q(0), Q(1)])
    assert parse_poly("3/2*x^3 + x") == Poly([Q(0), Q(1), Q(0), Q(3, 2)])
    assert parse_poly("0").is_zero
    with pytest.raises(ValueError):
        parse_poly("x*y")
    with pytest.raises(ValueError):
        parse_poly("1/x")


def test_poly_print_parse_round_trip():
    rng = random.Random(803)
    for _ in range(300):
        p = Poly([Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))])
        assert parse_poly(poly_to_str(p)) == p


def test_poly_to_json():
    assert poly_to_json(Poly([Q(-1, 2), Q(0), Q(1)])) == ["-1/2", "0", "1"]



def test_formula_to_str_memo_matches_per_atom_printing():
    # One term object shared by many atoms, and two equal but distinct
    # term objects, in a left-nested conjunction (printed without parens).
    shared = F.Add(F.Mul(F.Var(0), F.Var(1)), F.Opp(F.Const(Q(3, 2))))
    twin_a = F.Add(F.Var(0), F.Const(Q(1)))
    twin_b = F.Add(F.Var(0), F.Const(Q(1)))
    assert twin_a == twin_b and twin_a is not twin_b
    atoms = [F.Lt(shared, F.Const(Q(0))), F.Equal(twin_a, shared), F.Le(F.Var(1), twin_b)]
    atoms += [F.Lt(F.Const(Q(k)), shared) for k in range(20)]
    f = atoms[0]
    for atom in atoms[1:]:
        f = F.And(f, atom)
    ops = {F.Equal: "=", F.Lt: "<", F.Le: "<="}
    for names in (["a", "b"], None, ["u", "v"]):
        expected = " /\\ ".join(
            f"{term_to_str(a.left, names)} {ops[type(a)]} {term_to_str(a.right, names)}" for a in atoms
        )
        assert formula_to_str(f, names) == expected
    assert formula_to_str(f, ["a", "b"]).count("a * b - (3/2)") == 22
    assert formula_to_str(f, ["a", "b"]).count("a + 1") == 2
