from fractions import Fraction

import pytest

from spcover import picard
from spcover.exactalg import ExactAlgError, MultiPoly, RatFunc
from spcover.picard import (
    DELTA,
    LAMBDA,
    PHI,
    PicClass,
    coarse_identity_check,
    coarse_identity_numeric,
    component_degrees,
    decomposition_numeric,
    gl_star_check,
    kappa_forms,
    kappa_value,
    pd_classes,
    pic_to_json,
    star_class,
    star_coefficients,
    star_decomposition_check,
)


def kappa_oracle(n):
    """The weighted sum form, written directly in Fractions."""
    N = Fraction(2 * n * (2 * n - 1))
    simple = 4 * n * Fraction(1 + 2 * N, 1 + N)
    double = 4 * n * (n - 1) * Fraction(2 + 2 * N, 2 + N) * 2
    return (simple + double) / (12 * N * N)


# ---------------------------------------------------------------------------
# PicClass algebra
# ---------------------------------------------------------------------------


def test_pic_class_algebra():
    a = LAMBDA.scale(3) + PHI - DELTA.scale(Fraction(1, 2))
    b = a - PHI
    assert b == LAMBDA.scale(3) - DELTA.scale(Fraction(1, 2))
    assert (a - a).is_zero()
    assert a.evaluate(2, 3) == (Fraction(3), Fraction(1), Fraction(-1, 2))


def test_basis_classes_are_independent():
    assert LAMBDA != PHI and PHI != DELTA and LAMBDA != DELTA
    assert not LAMBDA.is_zero()


def test_pic_class_json_form():
    assert pic_to_json(star_class(2)) == {
        "lambda": "72",
        "phi": "-20*g + 20",
        "delta": "-6",
    }
    assert pic_to_json(LAMBDA - LAMBDA) == {"lambda": "0", "phi": "0", "delta": "0"}


def test_star_coefficients_closed_form():
    lam, phi, delta = star_coefficients(4)
    point = {"n": 5, "g": 2}  # star(4) has constant coefficients apart from g
    assert lam.evaluate(point) == 240
    assert phi.evaluate(point) == -72
    assert delta.evaluate(point) == -20
    assert star_class(4).evaluate(5, 2) == (240, -72, -20)


def test_star_is_quadratic_not_linear():
    n1, n2, n3 = component_degrees()
    assert star_class(n1) + star_class(n3) != star_class(n2)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def test_kappa_known_values():
    assert kappa_value(1) == Fraction(5, 36)
    assert kappa_value(2) == Fraction(19, 728)


def test_kappa_forms_agree_symbolically():
    assert kappa_forms().all_equal


@pytest.mark.parametrize("n", range(1, 13))
def test_kappa_matches_fraction_oracle(n):
    assert kappa_value(n) == kappa_oracle(n) == picard._kappa_numeric(n)


def test_kappa_radical_resolution():
    # the de-radicalized form relies on 4N + 1 = (4n - 1)^2
    for n in range(1, 13):
        N = 2 * n * (2 * n - 1)
        assert 4 * N + 1 == (4 * n - 1) ** 2


def test_kappa_value_guard():
    with pytest.raises(ExactAlgError):
        kappa_value(0)


# ---------------------------------------------------------------------------
# the decomposition
# ---------------------------------------------------------------------------


def test_star_decomposition_symbolic():
    rep = star_decomposition_check()
    assert rep.total_ok
    assert rep.defect_ok
    assert rep.nonadditive
    assert rep.lines_ok == (True, True, True)
    assert rep.all_ok
    assert rep.residual.is_zero()


def test_pd2_closed_form():
    _, pd2, _ = pd_classes()
    for n, g in [(1, 2), (2, 2), (3, 7)]:
        w = Fraction(8 * n * n * (n - 1))
        assert pd2.evaluate(n, g) == (12 * w, -4 * (g - 1) * w, -w)


def test_defect_equals_pd2_numerically():
    pd1, pd2, pd3 = pd_classes()
    n1, n2, n3 = component_degrees()
    lhs = star_class(n1 + n3) - star_class(n1) - star_class(n3)
    for n, g in [(2, 2), (3, 5), (6, 11)]:
        assert lhs.evaluate(n, g) == pd2.evaluate(n, g)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("g", range(2, 13))
def test_decomposition_numeric_grid(n, g):
    assert decomposition_numeric(n, g)


def test_lambda_lines_numeric():
    # evaluate both sides of each line on a grid; the middle and outer-3
    # lines have n = 1 poles where those components vanish
    pd1, pd2, pd3 = pd_classes()
    n1, _, n3 = component_degrees()
    for n in range(2, 9):
        for g in (2, 5, 9):
            for pd, deg in ((pd1, 2 * n), (pd3, 2 * n * (n - 1))):
                vals = pd.evaluate(n, g)
                # full line: lambda-coeff 1, phi-coeff 0, delta-coeff 0
                a = Fraction(1, 12 * deg * (deg + 1))
                b = Fraction((g - 1) * (2 * deg + 1), 6 * (deg + 1))
                assert a * vals[0] == 1
                assert a * vals[1] + b == 0
                assert a * vals[2] + Fraction(1, 12) == 0
            a2 = Fraction(1, 96 * n * n * (n - 1))
            vals = pd2.evaluate(n, g)
            assert a2 * vals[0] == 1
            assert a2 * vals[1] + Fraction(g - 1, 3) == 0
            assert a2 * vals[2] + Fraction(1, 12) == 0


def test_gl_line():
    assert gl_star_check()


# ---------------------------------------------------------------------------
# the coarse identity
# ---------------------------------------------------------------------------


def test_coarse_identity_symbolic():
    rep = coarse_identity_check()
    assert rep.identity_ok
    assert rep.c2_split_ok
    assert rep.psi_ok
    assert rep.delta_coefficient_ok
    assert rep.residual.is_zero()


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("g", range(2, 13))
def test_coarse_identity_numeric_grid(n, g):
    assert coarse_identity_numeric(n, g)


def test_coarse_identity_numeric_needs_no_symbolic_kappa(monkeypatch):
    def refuse():
        raise AssertionError("the numeric path must not build kappa_forms()")

    monkeypatch.setattr(picard, "kappa_forms", refuse)
    assert all(coarse_identity_numeric(n, g) for n in range(1, 13) for g in range(2, 13))


def test_coarse_identity_rank_two_balance():
    # the three lambda contributions at n = 2: 5/39 + 36/91 + 10/21 = 1
    N = Fraction(12)
    c1 = 1 / (12 * N * (N + 1))
    c2 = (2 * N + 3) / (12 * N * (N + 1) * (N + 2))
    c3 = 1 / (3 * N * (N + 2))
    assert c1 * 240 == Fraction(5, 39)
    assert c2 * 384 == Fraction(36, 91)
    assert c3 * 240 == Fraction(10, 21)
    assert c1 * 240 + c2 * 384 + c3 * 240 == 1
    # and the phi parts cancel against N kappa (g-1): 57/182 = 12 * 19/728
    phi_drain = c1 * 72 + c2 * 128 + c3 * 72
    assert phi_drain == Fraction(57, 182) == 12 * Fraction(19, 728)


def test_c2_splits_into_partial_fractions():
    for n in range(1, 10):
        N = Fraction(2 * n * (2 * n - 1))
        c2 = (2 * N + 3) / (12 * N * (N + 1) * (N + 2))
        split = Fraction(1, 6) / ((N + 1) * (N + 2)) + Fraction(1, 4) / (
            N * (N + 1) * (N + 2)
        )
        assert c2 == split
