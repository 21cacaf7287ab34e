"""Divisor-class identities on the compactified family of spectral covers.

Classes are formal combinations x*lambda + y*phi + z*delta with coefficients
in Q(n, g): lambda the Hodge class, phi the fiber class, delta the boundary.
The pushforward of a degree-N component contributes the "star" combination

    star(N) = N((N+1)(12 lambda - delta) - 2(g-1)(2N+1) phi),

and the three components of the generic discriminant (degrees N1 = 2n,
N2 = 2n^2, N3 = 2n(n-1)) satisfy PD1 + PD2 + PD3 = star(N2), where the middle
term PD2 = 8n^2(n-1)(12 lambda - delta - 4(g-1) phi) measures exactly the
failure of star to be additive: PD2 = star(N1+N3) - star(N1) - star(N3).
All identities live in Q(n, g) and are checked by cross-multiplication; the
numeric grid evaluations go through an independent Fraction-only path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exactalg import ExactAlgError, MultiPoly, RatFunc, Scalar

__all__ = [
    "PicClass",
    "LAMBDA",
    "PHI",
    "DELTA",
    "KappaForms",
    "StarDecompositionReport",
    "CoarseIdentityReport",
    "coarse_identity_check",
    "component_degrees",
    "coarse_identity_numeric",
    "decomposition_numeric",
    "gl_star_check",
    "kappa_forms",
    "kappa_value",
    "pd_classes",
    "pic_to_json",
    "star_class",
    "star_coefficients",
    "star_decomposition_check",
]

Coefficient = Union[RatFunc, MultiPoly, Scalar]

_N = MultiPoly.var("n")
_G = MultiPoly.var("g")


def _rf(x: Coefficient) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(x if isinstance(x, MultiPoly) else MultiPoly.const(x))


@dataclass(frozen=True)
class PicClass:
    """x*lambda + y*phi + z*delta with x, y, z in Q(n, g)."""

    lam: RatFunc
    phi: RatFunc
    delta: RatFunc

    def __post_init__(self):
        object.__setattr__(self, "lam", _rf(self.lam))
        object.__setattr__(self, "phi", _rf(self.phi))
        object.__setattr__(self, "delta", _rf(self.delta))

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(
            self.lam + other.lam, self.phi + other.phi, self.delta + other.delta
        )

    def __sub__(self, other: "PicClass") -> "PicClass":
        return PicClass(
            self.lam - other.lam, self.phi - other.phi, self.delta - other.delta
        )

    def scale(self, c: Coefficient) -> "PicClass":
        f = _rf(c)
        return PicClass(self.lam * f, self.phi * f, self.delta * f)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PicClass)
            and self.lam == other.lam
            and self.phi == other.phi
            and self.delta == other.delta
        )

    def is_zero(self) -> bool:
        return self.lam.is_zero() and self.phi.is_zero() and self.delta.is_zero()

    def evaluate(self, n: int, g: int) -> tuple[Fraction, Fraction, Fraction]:
        point = {"n": n, "g": g}
        return (
            self.lam.evaluate(point),
            self.phi.evaluate(point),
            self.delta.evaluate(point),
        )


LAMBDA = PicClass(_rf(1), _rf(0), _rf(0))
PHI = PicClass(_rf(0), _rf(1), _rf(0))
DELTA = PicClass(_rf(0), _rf(0), _rf(1))


def pic_to_json(c: PicClass) -> dict:
    """{"lambda": ..., "phi": ..., "delta": ...} with each coefficient printed
    in canonical expanded form; used for report witnesses."""
    return {"lambda": str(c.lam), "phi": str(c.phi), "delta": str(c.delta)}


def star_coefficients(N: Coefficient) -> tuple[RatFunc, RatFunc, RatFunc]:
    """(lambda, phi, delta) coefficients of star(N)."""
    f = _rf(N)
    one = _rf(1)
    g1 = _rf(_G - 1)
    return (
        f * (f + one) * _rf(12),
        f * (f + f + one) * g1 * _rf(-2),
        f * (f + one) * _rf(-1),
    )


def star_class(N: Coefficient) -> PicClass:
    """star(N) = N((N+1)(12 lambda - delta) - 2(g-1)(2N+1) phi)."""
    lam, phi, delta = star_coefficients(N)
    return PicClass(lam, phi, delta)


def component_degrees() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(N1, N2, N3) = (2n, 2n^2, 2n(n-1)) as polynomials in n."""
    return (2 * _N, 2 * _N * _N, 2 * _N * (_N - 1))


def pd_classes() -> tuple[PicClass, PicClass, PicClass]:
    """Pushforward classes of the three discriminant components.

    The outer components are star classes of their degrees; the middle one,
    supported on the pair-collision locus, carries the doubled boundary
    weight: PD2 = 8n^2(n-1)(12 lambda - delta - 4(g-1) phi).
    """
    n1, _, n3 = component_degrees()
    weight = _rf(8 * _N * _N * (_N - 1))
    pd2 = (
        LAMBDA.scale(12) - DELTA - PHI.scale(4 * (_G - 1))
    ).scale(weight)
    return star_class(n1), pd2, star_class(n3)


@dataclass(frozen=True)
class StarDecompositionReport:
    """Symbolic status of the three-component decomposition."""

    total_ok: bool  # PD1 + PD2 + PD3 == star(N2)
    defect_ok: bool  # star(N1+N3) - star(N1) - star(N3) == PD2
    nonadditive: bool  # PD2 != 0, so star is genuinely not additive
    lines_ok: tuple[bool, bool, bool]  # each PD isolates lambda
    residual: PicClass  # PD1 + PD2 + PD3 - star(N2); zero iff total_ok

    @property
    def all_ok(self) -> bool:
        return self.total_ok and self.defect_ok and self.nonadditive and all(
            self.lines_ok
        )


def _lambda_line(pd: PicClass, a: RatFunc, b: RatFunc) -> bool:
    """lambda == a * PD + b * phi + delta / 12, as an identity in Q(n, g)."""
    rhs = pd.scale(a) + PHI.scale(b) + DELTA.scale(Fraction(1, 12))
    return rhs == LAMBDA


def star_decomposition_check() -> StarDecompositionReport:
    """The decomposition, its defect form, and the three lambda isolations.

    Solving star(N) = PD for lambda gives, for the outer components,
        lambda = PD/(12N(N+1)) + (g-1)(2N+1) phi/(6(N+1)) + delta/12,
    and for the middle one
        lambda = PD2/(96n^2(n-1)) + (g-1) phi/3 + delta/12.
    The a-coefficients have poles at n = 1 where the components collapse;
    the identities still hold in Q(n, g).
    """
    pd1, pd2, pd3 = pd_classes()
    n1, n2, n3 = component_degrees()
    residual = pd1 + pd2 + pd3 - star_class(n2)
    g1 = _rf(_G - 1)

    def outer_line(pd: PicClass, deg: MultiPoly) -> bool:
        a = _rf(1) / _rf(12 * deg * (deg + 1))
        b = g1 * _rf(2 * deg + 1) / _rf(6 * (deg + 1))
        return _lambda_line(pd, a, b)

    a2 = _rf(1) / _rf(96 * _N * _N * (_N - 1))
    b2 = g1 / _rf(3)
    return StarDecompositionReport(
        total_ok=residual.is_zero(),
        defect_ok=(
            star_class(n1 + n3) - star_class(n1) - star_class(n3) == pd2
        ),
        nonadditive=not pd2.is_zero(),
        lines_ok=(outer_line(pd1, n1), _lambda_line(pd2, a2, b2), outer_line(pd3, n3)),
        residual=residual,
    )


def gl_star_check() -> bool:
    """The degree-n(n-1) analogue isolates lambda through the same star form."""
    m = _N * (_N - 1)
    g1 = _rf(_G - 1)
    a = _rf(1) / _rf(12 * m * (m + 1))
    b = g1 * _rf(2 * m + 1) / _rf(6 * (m + 1))
    return _lambda_line(star_class(m), a, b)


# ---------------------------------------------------------------------------
# The kappa constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaForms:
    """Three closed forms of the same rational function of n."""

    sum_form: RatFunc
    poly_form: RatFunc
    radical_form: RatFunc

    @property
    def all_equal(self) -> bool:
        return self.sum_form == self.poly_form == self.radical_form


def kappa_forms() -> KappaForms:
    """kappa as a weighted branch-count sum, a polynomial ratio, and a
    de-radicalized form.

    With N = 2n(2n-1),
      sum:     (1/(12 N^2)) (4n (1+2N)/(1+N) + 8n(n-1) (2+2N)/(2+N)),
      poly:    (16n^4-16n^3+12n^2-3n+1)/(192n^6-288n^5+288n^4-168n^3+60n^2-12n),
      radical: (4N^2 + 8N + sqrt(4N+1) + 5)/(12N(N+1)(N+2)),
    where sqrt(4N+1) = 4n-1 exactly, since 4N+1 = (4n-1)^2.
    """
    n = _N
    one = MultiPoly.one()
    N = 2 * n * (2 * n - 1)
    big_n = _rf(N)
    sum_form = (_rf(1) / _rf(12 * N * N)) * (
        _rf(4 * n) * _rf(one + 2 * N) / _rf(one + N)
        + _rf(8 * n * (n - 1)) * _rf(2 * one + 2 * N) / _rf(2 * one + N)
    )
    poly_form = _rf(
        16 * n**4 - 16 * n**3 + 12 * n**2 - 3 * n + one
    ) / _rf(
        192 * n**6 - 288 * n**5 + 288 * n**4 - 168 * n**3 + 60 * n**2 - 12 * n
    )
    radical_form = _rf(4 * N * N + 8 * N + (4 * n - one) + 5 * one) / _rf(
        12 * N * (N + one) * (N + 2 * one)
    )
    return KappaForms(sum_form, poly_form, radical_form)


def kappa_value(n: int) -> Fraction:
    """kappa at a concrete rank; 5/36 at n = 1, 19/728 at n = 2."""
    if n < 1:
        raise ExactAlgError("n must be at least 1")
    return kappa_forms().poly_form.evaluate({"n": n})


# ---------------------------------------------------------------------------
# The coarse identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseIdentityReport:
    identity_ok: bool  # lambda = N kappa (g-1) phi + sum c_i PD_i + delta/12
    c2_split_ok: bool  # c2 = 1/(6(N+1)(N+2)) + 1/(4N(N+1)(N+2))
    psi_ok: bool  # the phi term is kappa (g-1) psi for psi = N phi
    delta_coefficient_ok: bool  # the PD delta parts sum to exactly -1/12
    residual: PicClass  # rhs - lambda; a nonzero coefficient names the culprit

    @property
    def all_ok(self) -> bool:
        return (
            self.identity_ok
            and self.c2_split_ok
            and self.psi_ok
            and self.delta_coefficient_ok
        )


def coarse_identity_check() -> CoarseIdentityReport:
    """lambda through the pushforward classes and a kappa-weighted phi term.

    With N = 2n(2n-1) the full scaling weight,
        lambda = N kappa (g-1) phi + c1 PD1 + c2 PD2 + c3 PD3 + delta/12,
        c1 = 1/(12N(N+1)),  c2 = (2N+3)/(12N(N+1)(N+2)),  c3 = 1/(3N(N+2)).
    The delta parts of the c_i PD_i cancel the explicit delta/12 on the nose,
    and the phi parts cancel against the kappa term; both cancellations are
    recorded separately.
    """
    pd1, pd2, pd3 = pd_classes()
    one = MultiPoly.one()
    N = 2 * _N * (2 * _N - 1)
    kappa = kappa_forms().poly_form
    g1 = _rf(_G - 1)

    c1 = _rf(1) / _rf(12 * N * (N + one))
    c2 = _rf(2 * N + 3 * one) / _rf(12 * N * (N + one) * (N + 2 * one))
    c3 = _rf(1) / _rf(3 * N * (N + 2 * one))

    phi_term = PHI.scale(_rf(N) * kappa * g1)
    rhs = (
        phi_term
        + pd1.scale(c1)
        + pd2.scale(c2)
        + pd3.scale(c3)
        + DELTA.scale(Fraction(1, 12))
    )

    split = _rf(1) / _rf(6 * (N + one) * (N + 2 * one)) + _rf(1) / _rf(
        4 * N * (N + one) * (N + 2 * one)
    )

    # psi = N phi: the phi term must be kappa (g-1) psi on the nose
    psi_scaled = PHI.scale(_rf(N)).scale(kappa * g1)

    delta_part = c1 * pd1.delta + c2 * pd2.delta + c3 * pd3.delta
    residual = rhs - LAMBDA

    return CoarseIdentityReport(
        identity_ok=residual.is_zero(),
        c2_split_ok=(c2 == split),
        psi_ok=(psi_scaled == phi_term),
        delta_coefficient_ok=(delta_part == _rf(Fraction(-1, 12))),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Independent numeric paths (plain Fractions, no symbolic machinery)
# ---------------------------------------------------------------------------


def _star_numeric(N: Fraction, g: int) -> tuple[Fraction, Fraction, Fraction]:
    return (
        12 * N * (N + 1),
        -2 * N * (2 * N + 1) * (g - 1),
        -N * (N + 1),
    )


def decomposition_numeric(n: int, g: int) -> bool:
    """PD1 + PD2 + PD3 == star(N2) at one (n, g), in bare Fractions."""
    n1, n2, n3 = Fraction(2 * n), Fraction(2 * n * n), Fraction(2 * n * (n - 1))
    w = Fraction(8 * n * n * (n - 1))
    pd2 = (12 * w, -4 * (g - 1) * w, -w)
    s1, s3, s2 = _star_numeric(n1, g), _star_numeric(n3, g), _star_numeric(n2, g)
    return all(
        s1[i] + pd2[i] + s3[i] == s2[i] for i in range(3)
    )


def _kappa_numeric(n: int) -> Fraction:
    """kappa at n from the weighted branch-count sum form of `kappa_forms`."""
    N = 2 * n * (2 * n - 1)
    simple = Fraction(4 * n * (1 + 2 * N), 1 + N)
    double = Fraction(8 * n * (n - 1) * (2 + 2 * N), 2 + N)
    return (simple + double) / (12 * N * N)


def coarse_identity_numeric(n: int, g: int) -> bool:
    """The coarse identity at one (n, g), in bare Fractions; kappa comes from
    its sum form here, not from the symbolic `kappa_forms`."""
    N = Fraction(2 * n * (2 * n - 1))
    kappa = _kappa_numeric(n)
    c1 = 1 / (12 * N * (N + 1))
    c2 = (2 * N + 3) / (12 * N * (N + 1) * (N + 2))
    c3 = 1 / (3 * N * (N + 2))
    n1, n3 = Fraction(2 * n), Fraction(2 * n * (n - 1))
    w = Fraction(8 * n * n * (n - 1))
    s1, s3 = _star_numeric(n1, g), _star_numeric(n3, g)
    pd2 = (12 * w, -4 * (g - 1) * w, -w)
    lam = c1 * s1[0] + c2 * pd2[0] + c3 * s3[0]
    phi = N * kappa * (g - 1) + c1 * s1[1] + c2 * pd2[1] + c3 * s3[1]
    delta = c1 * s1[2] + c2 * pd2[2] + c3 * s3[2] + Fraction(1, 12)
    return lam == 1 and phi == 0 and delta == 0
