import random
from fractions import Fraction

import pytest

from spcover.exactalg import (
    ExactAlgError,
    ExactDivisionError,
    MultiPoly,
    RatFunc,
    UniPoly,
    det_bareiss,
    discriminant,
    div_exact,
    order_at_zero,
    poly_from_json,
    poly_to_json,
    ratfunc_equal,
    resultant,
)

x = MultiPoly.var("x")
y = MultiPoly.var("y")


def rand_poly(rng, variables=("x", "y"), terms=4, deg=3):
    p = MultiPoly.zero()
    for _ in range(terms):
        t = MultiPoly.const(rng.randint(-4, 4))
        for v in variables:
            t = t * MultiPoly.var(v) ** rng.randint(0, deg)
        p = p + t
    return p


# ---------------------------------------------------------------------------
# MultiPoly basics
# ---------------------------------------------------------------------------


def test_variable_order_is_natural_sort():
    p = MultiPoly.var("Q10") + MultiPoly.var("Q2") + MultiPoly.var("Q4")
    assert p.vars == ("Q2", "Q4", "Q10")
    assert poly_to_json(p)["vars"] == ["Q2", "Q4", "Q10"]


def test_leading_term_graded_lex():
    p = x * x * y + x * y * y  # (2,1) beats (1,2) at equal total degree
    exps, coeff = p.leading_term()
    assert exps == (2, 1) and coeff == 1
    assert str(p) == "x^2*y + x*y^2"


def test_str_rendering():
    p = 3 * x * x * MultiPoly.var("z") - 4 * x + MultiPoly.const(Fraction(1, 2))
    assert str(p) == "3*x^2*z - 4*x + 1/2"
    assert str(MultiPoly.zero()) == "0"


def test_ring_axioms_seeded():
    rng = random.Random(0)
    for _ in range(40):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p + MultiPoly.zero() == p
        assert p * MultiPoly.one() == p
        assert p - p == MultiPoly.zero()


def test_substitute_matches_evaluate():
    rng = random.Random(1)
    for _ in range(20):
        p = rand_poly(rng)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        sub = p.substitute({"x": MultiPoly.const(a), "y": MultiPoly.const(b)})
        assert sub.is_constant()
        assert sub.constant_value() == p.evaluate({"x": a, "y": b})


def test_substitution_is_simultaneous():
    p = x + y
    q = p.substitute({"x": y, "y": x})
    assert q == x + y  # not 2x or 2y


def test_evaluate_requires_all_variables():
    with pytest.raises(ExactAlgError, match="no value supplied"):
        (x + y).evaluate({"x": 1})


def test_scalar_coercion_and_division():
    p = (2 * x + 4) / 2
    assert p == x + 2
    assert x + Fraction(1, 3) == x + MultiPoly.const(Fraction(1, 3))


def test_integral_coefficients_are_stored_as_int():
    assert type(MultiPoly.const(Fraction(6, 3)).constant_value()) is int
    assert type(x.leading_coefficient()) is int
    assert type((x / 2).leading_coefficient()) is Fraction


def assert_exact(value):
    """Every stored coefficient is exactly an int or a Fraction."""
    if isinstance(value, RatFunc):
        assert_exact(value.num)
        assert_exact(value.den)
        return
    for c in value.terms.values():
        assert type(c) in (int, Fraction), (type(c), value)


def rand_exact_scalar(rng):
    if rng.random() < 0.5:
        return rng.choice((-1, 1)) * rng.randint(1, 6)
    return Fraction(rng.randint(-6, 6) or 1, rng.randint(2, 6))


def rand_exact_poly(rng, terms=3, deg=2):
    p = MultiPoly.zero()
    for _ in range(terms):
        p = p + rand_exact_scalar(rng) * x ** rng.randint(0, deg) * y ** rng.randint(0, deg)
    return p


def test_no_float_or_bool_coefficient_seeded():
    rng = random.Random(13)
    for _ in range(40):
        p, q = rand_exact_poly(rng), rand_exact_poly(rng)
        if q.is_zero():
            continue
        c = rand_exact_scalar(rng)
        polys = [
            p + q,
            p - q,
            p * q,
            p * c,
            c * p,
            p / c,
            p ** rng.randint(0, 3),
            div_exact(p * q, q),
            p.substitute({"x": q, "y": c}),
            p.derivative("x"),
            poly_from_json(poly_to_json(p * q)),
        ]
        for r in polys:
            assert_exact(r)
        f, g = RatFunc(p, q), RatFunc(q, c * x + 1)
        ratfuncs = [f, g, f + g, f - g, f * g, RatFunc(p, c), RatFunc(c, q)]
        if not p.is_zero():
            ratfuncs.append(g / f)
        for r in ratfuncs:
            assert_exact(r)
        point = {"x": rand_exact_scalar(rng), "y": rand_exact_scalar(rng)}
        for r in polys:
            assert type(r.evaluate(point)) in (int, Fraction)
        for r in ratfuncs:
            if r.den.evaluate(point):
                assert type(r.evaluate(point)) is Fraction


def test_float_and_bool_are_rejected():
    with pytest.raises(ExactAlgError):
        MultiPoly.const(True)
    with pytest.raises(ExactAlgError):
        MultiPoly.var("x") * True
    with pytest.raises(ExactAlgError):
        MultiPoly.var("x") / 2.0
    with pytest.raises(ExactAlgError):
        MultiPoly.var("x").evaluate({"x": 0.5})


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_div_exact_round_trip():
    rng = random.Random(2)
    for _ in range(25):
        p = rand_poly(rng)
        q = rand_poly(rng)
        if q.is_zero():
            continue
        assert div_exact(p * q, q) == p


def test_div_exact_failure_carries_remainder():
    with pytest.raises(ExactDivisionError) as exc:
        div_exact(x * x + 1, y)
    assert isinstance(exc.value.remainder, MultiPoly)
    assert not exc.value.remainder.is_zero()


def test_order_at_zero():
    t = MultiPoly.var("t")
    assert order_at_zero(t * t * (1 + t), "t") == 2
    assert order_at_zero(x + 1, "t") == 0  # t does not appear
    with pytest.raises(ExactAlgError, match="order undefined"):
        order_at_zero(MultiPoly.zero(), "t")


# ---------------------------------------------------------------------------
# determinants, resultants, discriminants
# ---------------------------------------------------------------------------


def test_det_bareiss_hand_values():
    m = [[MultiPoly.const(c) for c in row] for row in [[2, 0, 1], [1, 3, 2], [0, 1, 4]]]
    assert det_bareiss(m).constant_value() == 21  # cofactor expansion by hand
    assert det_bareiss([[x, MultiPoly.one()], [MultiPoly.one(), x]]) == x * x - 1
    swap = [[MultiPoly.zero(), MultiPoly.one()], [MultiPoly.one(), MultiPoly.zero()]]
    assert det_bareiss(swap).constant_value() == -1


def test_resultant_hand_sylvester():
    # f = (x+1)(x+2), g = x-5: Res = g(-1) g(-2) = 42, and the 3x3 Sylvester
    # determinant [[1,3,2],[1,-5,0],[0,1,-5]] is 42 by hand.
    f = UniPoly("x", [2, 3, 1])
    g = UniPoly("x", [-5, 1])
    assert resultant(f, g).constant_value() == 42


def test_resultant_root_product_seeded():
    rng = random.Random(3)
    for _ in range(15):
        roots_f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        roots_g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        f = UniPoly("x", [1])
        for r in roots_f:
            f = f * UniPoly("x", [-r, 1])
        g = UniPoly("x", [1])
        for r in roots_g:
            g = g * UniPoly("x", [-r, 1])
        expected = Fraction(1)
        for a in roots_f:
            for b in roots_g:
                expected *= a - b
        assert resultant(f, g).constant_value() == expected


def test_resultant_against_constant_is_power_rule():
    f = UniPoly("x", [2, 3, 1])
    assert resultant(f, UniPoly("x", [7])).constant_value() == 49
    assert resultant(UniPoly("x", [7]), f).constant_value() == 49


def test_resultant_errors_and_zero():
    with pytest.raises(ExactAlgError, match="resultant undefined for two constants"):
        resultant(UniPoly("x", [3]), UniPoly("x", [5]))
    f = UniPoly("x", [2, 3, 1])
    assert resultant(UniPoly("x", []), f).is_zero()


def test_discriminant_hand_and_root_products():
    # (x-1)(x-2)(x-3): prod of squared root gaps = 1*4*1 = 4
    f = UniPoly("x", [-6, 11, -6, 1])
    assert discriminant(f).constant_value() == 4
    rng = random.Random(4)
    for _ in range(15):
        roots = rng.sample(range(-6, 7), rng.randint(2, 4))
        f = UniPoly("x", [1])
        for r in roots:
            f = f * UniPoly("x", [-r, 1])
        expected = Fraction(1)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                expected *= (roots[i] - roots[j]) ** 2
        assert discriminant(f).constant_value() == expected


def test_discriminant_quadratic_symbolic():
    b, c = MultiPoly.var("b"), MultiPoly.var("c")
    f = UniPoly("x", [c, b, MultiPoly.one()])
    assert discriminant(f) == b * b - 4 * c


def test_discriminant_guards():
    with pytest.raises(ExactAlgError, match="discriminant requires monic input"):
        discriminant(UniPoly("x", [1, 0, 2]))
    with pytest.raises(ExactAlgError, match="discriminant needs degree at least 2"):
        discriminant(UniPoly("x", [1, 1]))


def test_discriminant_product_identity_seeded():
    # disc(fg) = disc(f) disc(g) Res(f,g)^2 for monic f, g
    rng = random.Random(5)
    for _ in range(10):
        f = UniPoly("x", [rng.randint(-3, 3), rng.randint(-3, 3), 1])
        g = UniPoly("x", [rng.randint(-3, 3), rng.randint(-3, 3), 1])
        r = resultant(f, g)
        assert discriminant(f * g) == discriminant(f) * discriminant(g) * r * r


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------


def test_unipoly_round_trip_and_horner():
    p = (x * x + 1) * y + x - 3
    u = UniPoly.from_multipoly(p, "x")
    assert u.degree == 2
    assert u.substitute_main(MultiPoly.var(u.var)) == p
    assert u.substitute_main(MultiPoly.const(2)) == p.substitute(
        {"x": MultiPoly.const(2)}
    )


def test_unipoly_rejects_main_var_in_coefficients():
    with pytest.raises(ExactAlgError):
        UniPoly("x", [x, MultiPoly.one()])


def test_unipoly_arithmetic_and_derivative():
    u = UniPoly("x", [1, 2, 3])  # 3x^2 + 2x + 1
    v = UniPoly("x", [0, 1])
    assert (u * v).degree == 3
    assert u.derivative().coeffs == (MultiPoly.const(2), MultiPoly.const(6))
    assert (u + v).coefficient(1) == MultiPoly.const(3)


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


def test_ratfunc_equality_without_cancellation():
    lhs = RatFunc(x * x - 1, x - 1)
    assert lhs == RatFunc(x + 1)
    assert ratfunc_equal(lhs, RatFunc(x + 1))
    assert RatFunc(x, y) != RatFunc(y, x)


def test_ratfunc_normalizes_denominator_lead():
    r = RatFunc(x, 2 * x + 2)
    assert r.den.leading_coefficient() == 1


def test_ratfunc_arithmetic():
    a = RatFunc(MultiPoly.one(), x)
    b = RatFunc(MultiPoly.one(), y)
    assert a + b == RatFunc(x + y, x * y)
    assert a * b == RatFunc(MultiPoly.one(), x * y)
    assert (a / b) == RatFunc(y, x)


def test_ratfunc_guards():
    with pytest.raises(ExactAlgError, match="zero denominator"):
        RatFunc(x, MultiPoly.zero())
    with pytest.raises(ExactAlgError, match="denominator vanishes"):
        RatFunc(MultiPoly.one(), x).evaluate({"x": 0})


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def test_poly_json_round_trip_bit_exact():
    p = Fraction(1, 3) * x * x * y - 2 * y + Fraction(7, 5)
    data = poly_to_json(p)
    assert data["vars"] == ["x", "y"]
    assert poly_from_json(data) == p
    # terms are emitted leading-first
    assert data["terms"][0][:2] == [1, 3]


def test_poly_json_round_trip_seeded():
    rng = random.Random(6)
    for _ in range(20):
        p = rand_poly(rng, variables=("a", "b", "c"))
        assert poly_from_json(poly_to_json(p)) == p
