"""Spectral data of rank-2n symplectic covers and its degenerations.

A point of the base moduli problem is a tuple Q = (Q_2, Q_4, ..., Q_2n); the
spectral polynomial it defines is

    P(v) = v^(2n) + Q_2 v^(2n-2) + ... + Q_2n = Pt(v^2),
    Pt(q) = q^n + Q_2 q^(n-1) + ... + Q_2n.

The discriminant of P factors as W = c * Q_2n * Delta^2 with |c| = 4^n and
Delta the discriminant of Pt (Delta := 1 when n = 1).  This module computes
that factorization exactly, checks the scaling weights of W and Delta, carries
the zero/branch-point numerology of the associated 2n-sheeted cover, and
measures the vanishing order of stratum detectors on shipped one-parameter
local families, one per degeneration class.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .exactalg import (
    ExactAlgError,
    ExactDivisionError,
    MultiPoly,
    Scalar,
    UniPoly,
    det_bareiss,  # unused; bench test_tracer_restores_the_library reads it here
    discriminant,
    div_exact,
    order_at_zero,
    poly_from_json,
    poly_to_json,
    resultant,
)

__all__ = [
    "SpectralData",
    "CoverNumerics",
    "HamiltonianMatrix",
    "LocalFamily",
    "FactorizationResult",
    "FactorizationError",
    "FamilyDegenerateError",
    "ScalingReport",
    "DegreeReport",
    "RiemannHurwitzResult",
    "StratumReport",
    "EXPECTED_STRATUM_ORDERS",
    "STRATUM_LABELS",
    "build_P",
    "build_Pt",
    "char_poly_hamiltonian",
    "cover_numerics",
    "dims_and_degrees",
    "factorize_discriminant",
    "family_from_json",
    "family_to_json",
    "local_family",
    "random_hamiltonian",
    "restricted_discriminant_square",
    "riemann_hurwitz",
    "scaling_action",
    "shipped_fixture_report",
    "stratum_multiplicity",
]


class FactorizationError(ExactAlgError):
    """The discriminant factorization W = c * Q_2n * Delta^2 failed."""

    def __init__(self, message: str, residual: Optional[MultiPoly] = None):
        super().__init__(message)
        self.residual = residual


class FamilyDegenerateError(ExactAlgError):
    """A local family violates its genericity conditions."""


@dataclass(frozen=True)
class SpectralData:
    """Coefficient tuple of a spectral polynomial, symbolic or concrete.

    `Q[2j]` is the coefficient of v^(2n-2j) in P; keys run over 2, 4, ..., 2n.
    """

    n: int
    Q: Mapping[int, MultiPoly]

    def __post_init__(self):
        if self.n < 1:
            raise ExactAlgError("n must be at least 1")
        expected = {2 * j for j in range(1, self.n + 1)}
        if set(self.Q) != expected:
            raise ExactAlgError(
                f"coefficient keys must be {sorted(expected)}, got {sorted(self.Q)}"
            )
        coerced = {
            k: v if isinstance(v, MultiPoly) else MultiPoly.const(v)
            for k, v in self.Q.items()
        }
        object.__setattr__(self, "Q", coerced)

    @classmethod
    def symbolic(cls, n: int) -> "SpectralData":
        """Abstract coefficients Q2, Q4, ... as formal variables."""
        return cls(n, {2 * j: MultiPoly.var(f"Q{2*j}") for j in range(1, n + 1)})


def build_P(data: SpectralData) -> UniPoly:
    """The full spectral polynomial P(v), monic of degree 2n, even powers only."""
    coeffs = [MultiPoly.zero()] * (2 * data.n + 1)
    coeffs[2 * data.n] = MultiPoly.one()
    for j in range(1, data.n + 1):
        coeffs[2 * data.n - 2 * j] = data.Q[2 * j]
    return UniPoly("v", coeffs)


def build_Pt(data: SpectralData, var: str = "q") -> UniPoly:
    """The half-spectrum polynomial Pt with Pt(v^2) = P(v), monic of degree n."""
    coeffs = [MultiPoly.zero()] * (data.n + 1)
    coeffs[data.n] = MultiPoly.one()
    for j in range(1, data.n + 1):
        coeffs[data.n - j] = data.Q[2 * j]
    return UniPoly(var, coeffs)


# ---------------------------------------------------------------------------
# Hamiltonian characteristic polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Block matrix [[A, B], [C, -A^T]] with B and C symmetric n x n blocks."""

    n: int
    A: Sequence[Sequence[MultiPoly]]
    B: Sequence[Sequence[MultiPoly]]
    C: Sequence[Sequence[MultiPoly]]

    def __post_init__(self):
        n = self.n
        blocks = {}
        for name in ("A", "B", "C"):
            block = [
                [
                    e if isinstance(e, MultiPoly) else MultiPoly.const(e)
                    for e in row
                ]
                for row in getattr(self, name)
            ]
            if len(block) != n or any(len(r) != n for r in block):
                raise ExactAlgError(f"block {name} is not {n} x {n}")
            blocks[name] = block
        for name in ("B", "C"):
            block = blocks[name]
            for i in range(n):
                for j in range(i + 1, n):
                    if block[i][j] != block[j][i]:
                        raise ExactAlgError(f"block {name} is not symmetric")
        for name, block in blocks.items():
            object.__setattr__(self, name, tuple(tuple(r) for r in block))

    def full(self) -> list[list[MultiPoly]]:
        n = self.n
        rows = []
        for i in range(n):
            rows.append(list(self.A[i]) + list(self.B[i]))
        for i in range(n):
            rows.append([self.C[i][j] for j in range(n)] + [-self.A[j][i] for j in range(n)])
        return rows


def random_hamiltonian(n: int, rng: random.Random, bound: int = 3) -> HamiltonianMatrix:
    """Integer Hamiltonian sample; B and C symmetrized as M + M^T."""

    def draw() -> list[list[int]]:
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]

    A = draw()
    M1, M2 = draw(), draw()
    B = [[M1[i][j] + M1[j][i] for j in range(n)] for i in range(n)]
    C = [[M2[i][j] + M2[j][i] for j in range(n)] for i in range(n)]
    return HamiltonianMatrix(n, A, B, C)


def _berkowitz(rows: Sequence[Sequence[MultiPoly]]) -> list[MultiPoly]:
    """Coefficients of det(vI - M), highest power first (Berkowitz, 1984).

    Division-free, so it works over any commutative ring.  The trailing
    principal submatrices M[k:, k:] are absorbed one at a time: with corner m,
    off-corner row R and column C, and the previous submatrix A, the running
    coefficients are multiplied by the lower-triangular Toeplitz matrix whose
    first column is 1, -m, -R C, -R A C, -R A^2 C, ...
    """
    zero = MultiPoly.zero()

    def dot(xs, ys) -> MultiPoly:
        return sum((x * y for x, y in zip(xs, ys)), zero)

    coeffs = [MultiPoly.one()]
    for k in reversed(range(len(rows))):
        inner = [r[k + 1 :] for r in rows[k + 1 :]]
        row, col = rows[k][k + 1 :], [r[k] for r in rows[k + 1 :]]
        toeplitz = [MultiPoly.one(), -rows[k][k]]
        for _ in inner:
            toeplitz.append(-dot(row, col))
            col = [dot(r, col) for r in inner]
        coeffs = [dot(toeplitz[i::-1], coeffs) for i in range(len(coeffs) + 1)]
    return coeffs


def char_poly_hamiltonian(h: HamiltonianMatrix) -> tuple[UniPoly, SpectralData]:
    """det(vI - X) for X = [[A, B], [C, -A^T]], by Berkowitz's algorithm.

    The result is monic of degree 2n; its odd powers of v are checked to vanish,
    and its even coefficients form the SpectralData the matrix sits over.
    """
    coeffs = _berkowitz(h.full())
    if not all(c.is_zero() for c in coeffs[1::2]):
        raise ExactAlgError("characteristic polynomial has an odd-degree term")
    data = SpectralData(h.n, {2 * j: coeffs[2 * j] for j in range(1, h.n + 1)})
    return UniPoly("v", coeffs[::-1]), data


# ---------------------------------------------------------------------------
# Discriminant factorization and scaling weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationResult:
    """W = constant * Q_2n * Delta^2, with w_reduced = constant * Q_2n * Delta."""

    n: int
    w: MultiPoly
    delta: MultiPoly
    constant: Scalar
    w_reduced: MultiPoly
    sign_is_minus4_pow_n: bool


SYMBOLIC_FACTORIZATION_CAP = 4


def factorize_discriminant(data: Union[int, SpectralData]) -> FactorizationResult:
    """Factor disc(P) as c * Q_2n * Delta^2 and certify |c| = 4^n.

    Accepts either a SpectralData (symbolic or concrete coefficients) or a
    bare n, which means the fully symbolic case.  Symbolic mode is capped at
    n = 4; the Sylvester matrices beyond that are out of the intended scale.
    """
    if isinstance(data, int):
        if data > SYMBOLIC_FACTORIZATION_CAP:
            raise ExactAlgError(
                f"symbolic factorization capped at n = {SYMBOLIC_FACTORIZATION_CAP}"
            )
        return _symbolic_factorization(data)
    symbolic = all(
        data.Q[2 * j] == MultiPoly.var(f"Q{2*j}") for j in range(1, data.n + 1)
    )
    if symbolic:
        if data.n > SYMBOLIC_FACTORIZATION_CAP:
            raise ExactAlgError(
                f"symbolic factorization capped at n = {SYMBOLIC_FACTORIZATION_CAP}"
            )
        return _symbolic_factorization(data.n)
    return _factorize(data)


@functools.lru_cache(maxsize=None)
def _symbolic_factorization(n: int) -> FactorizationResult:
    return _factorize(SpectralData.symbolic(n))


def _factorize(data: SpectralData) -> FactorizationResult:
    n = data.n
    w = discriminant(build_P(data))
    delta = discriminant(build_Pt(data)) if n >= 2 else MultiPoly.one()
    q2n = data.Q[2 * n]
    divisor = q2n * delta * delta
    if divisor.is_zero():
        raise FactorizationError("factorization violated", w)
    try:
        quotient = div_exact(w, divisor)
    except ExactDivisionError as exc:
        raise FactorizationError("factorization violated", exc.remainder) from exc
    if not quotient.is_constant():
        raise FactorizationError("factorization violated", quotient)
    constant = quotient.constant_value()
    if abs(constant) != 4**n:
        raise FactorizationError("factorization violated", quotient)
    return FactorizationResult(
        n=n,
        w=w,
        delta=delta,
        constant=constant,
        w_reduced=q2n * delta * constant,
        sign_is_minus4_pow_n=(constant == (-4) ** n),
    )


@dataclass(frozen=True)
class ScalingReport:
    """Equivariance of P, W, Delta under Q_2j -> xi^(2j) Q_2j."""

    n: int
    weight_w: int
    weight_delta: int
    p_equivariant: bool
    w_weight_ok: bool
    delta_weight_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.p_equivariant and self.w_weight_ok and self.delta_weight_ok


def scaling_action(n: int) -> ScalingReport:
    """Verify xi^(2n) P(xi^(-1) v) = P[Q -> xi^(2j) Q] and the induced weights.

    W is weighted-homogeneous of weight 2n(2n-1) and Delta of weight 2n(n-1)
    when Q_2j carries weight 2j.  Everything is an exact polynomial identity:
    the twisted P is assembled coefficient-by-coefficient (coefficient of v^k
    picks up xi^(2n-k)), never by rational substitution.
    """
    data = SpectralData.symbolic(n)
    xi = MultiPoly.var("xi")
    sub = {f"Q{2*j}": xi ** (2 * j) * MultiPoly.var(f"Q{2*j}") for j in range(1, n + 1)}
    p = build_P(data)
    twisted = UniPoly(
        "v", [p.coefficient(k) * xi ** (2 * n - k) for k in range(2 * n + 1)]
    )
    substituted = UniPoly("v", [c.substitute(sub) for c in p.coeffs])
    fact = factorize_discriminant(n)
    weight_w = 2 * n * (2 * n - 1)
    weight_delta = 2 * n * (n - 1)
    return ScalingReport(
        n=n,
        weight_w=weight_w,
        weight_delta=weight_delta,
        p_equivariant=(twisted == substituted),
        w_weight_ok=(fact.w.substitute(sub) == xi**weight_w * fact.w),
        delta_weight_ok=(fact.delta.substitute(sub) == xi**weight_delta * fact.delta),
    )


def restricted_discriminant_square(n: int) -> bool:
    """At a zero of Q_2n, Delta equals Q_(2n-2)^2 times the deflated discriminant.

    Imposing Q_2n = 0 turns Pt into q times its deflation h; then
    Delta|_(Q_2n=0) = disc(h) * h(0)^2 with h(0) = Q_(2n-2).  Verified by exact
    division; the perfect-square factor is what makes the boundary/caustic
    detector vanish to order two.
    """
    if n < 2:
        raise ExactAlgError("restriction needs n at least 2")
    data = SpectralData.symbolic(n)
    delta = factorize_discriminant(n).delta
    restricted = delta.substitute({f"Q{2*n}": MultiPoly.zero()})
    q2n2 = MultiPoly.var(f"Q{2*n-2}")
    quotient = div_exact(restricted, q2n2 * q2n2)
    deflated = UniPoly(
        "q",
        [data.Q[2 * (n - j)] for j in range(1, n)] + [MultiPoly.one()],
    )
    deflated_disc = (
        discriminant(deflated) if deflated.degree >= 2 else MultiPoly.one()
    )
    return quotient == deflated_disc


# ---------------------------------------------------------------------------
# Cover numerology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverNumerics:
    """Zero and branch-point counts of the generic rank-2n cover over genus g."""

    n: int
    g: int
    weight: int  # N = 2n(2n-1), the scaling weight of W
    simple_zeros: int  # zeros of Q_2n
    double_zeros: int  # zeros of Delta
    total_zeros: int  # r = zeros of the reduced discriminant
    branch_with_mult: int  # zeros of W counted with multiplicity
    genus_hat: int  # genus of the generic cover
    component_degrees: tuple[int, int, int]  # (N1, N2, N3)


def cover_numerics(n: int, g: int) -> CoverNumerics:
    """Closed-form counts; internal consistency is asserted, not assumed."""
    if n < 1 or g < 2:
        raise ExactAlgError("need n >= 1 and g >= 2")
    weight = 2 * n * (2 * n - 1)
    simple = 4 * n * (g - 1)
    double = 4 * n * (n - 1) * (g - 1)
    total = 4 * n * n * (g - 1)
    branch = 2 * weight * (g - 1)
    genus_hat = (2 * n) ** 2 * (g - 1) + 1
    n1, n3 = 2 * n, 2 * n * (n - 1)
    n2 = 2 * n * n
    if simple + double != total:
        raise ExactAlgError("zero counts violate r = simple + double")
    if simple + 2 * double != branch:
        raise ExactAlgError("multiplicity count violates W = c Q_2n Delta^2")
    if n1 + n3 != n2:
        raise ExactAlgError("component degrees violate N2 = N1 + N3")
    rh = riemann_hurwitz(2 * n, g, [2] * simple + [2, 2] * double)
    if rh.genus != genus_hat:
        raise ExactAlgError("generic genus disagrees with Riemann-Hurwitz")
    return CoverNumerics(
        n=n,
        g=g,
        weight=weight,
        simple_zeros=simple,
        double_zeros=double,
        total_zeros=total,
        branch_with_mult=branch,
        genus_hat=genus_hat,
        component_degrees=(n1, n2, n3),
    )


@dataclass(frozen=True)
class RiemannHurwitzResult:
    sheets: int
    base_genus: int
    total_branching: int
    genus: Optional[int]  # None when the count cannot close (odd parity)

    @property
    def consistent(self) -> bool:
        return self.genus is not None


def riemann_hurwitz(
    sheets: int, g: int, branching: Sequence[int]
) -> RiemannHurwitzResult:
    """Solve 2g^ - 2 = sheets(2g - 2) + sum(b_p - 1) for the cover genus.

    `branching` lists the local multiplicity b_p of every point of the cover
    where sheets come together (a node counts once, with multiplicity 2).  An
    odd right-hand side cannot come from a covering profile; the result is
    flagged instead of rounded.
    """
    if sheets < 1 or g < 0:
        raise ExactAlgError("need sheets >= 1 and base genus >= 0")
    if any(b < 1 for b in branching):
        raise ExactAlgError("branching orders must be at least 1")
    total = sum(b - 1 for b in branching)
    rhs = sheets * (2 * g - 2) + total
    if rhs % 2:
        return RiemannHurwitzResult(sheets, g, total, None)
    return RiemannHurwitzResult(sheets, g, total, rhs // 2 + 1)


# ---------------------------------------------------------------------------
# Fundamental degrees and moduli dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    group: str
    rank: int
    g: int
    degrees: tuple[int, ...]
    dim_group: int
    sum_rule_ok: bool  # sum(2 d_j - 1) == dim G
    moduli_dim: int  # (g - 1) dim G
    variable_base_dim: int  # (dim G + 3)(g - 1)


_DEGREE_TABLES = {
    "A": lambda k: tuple(range(2, k + 2)),
    "B": lambda k: tuple(range(2, 2 * k + 1, 2)),
    "C": lambda k: tuple(range(2, 2 * k + 1, 2)),
    "D": lambda k: tuple(range(2, 2 * k - 1, 2)) + (k,),
    "Sp": lambda k: tuple(range(2, 2 * k + 1, 2)),
    "GL": lambda k: tuple(range(1, k + 1)),
}

_DIM_TABLES = {
    "A": lambda k: (k + 1) ** 2 - 1,
    "B": lambda k: k * (2 * k + 1),
    "C": lambda k: k * (2 * k + 1),
    "D": lambda k: k * (2 * k - 1),
    "Sp": lambda k: k * (2 * k + 1),
    "GL": lambda k: k * k,
}


def dims_and_degrees(group: str, rank: int, g: int) -> DegreeReport:
    """Fundamental degrees, dim G, and the two moduli dimension counts.

    Sp(2n) is the C_n table; GL(n) uses degrees 1..n.  The base-varying count
    adds the 3(g - 1)-dimensional deformation of the base curve itself.
    """
    if group not in _DEGREE_TABLES:
        raise ExactAlgError("unsupported group label")
    min_rank = 2 if group == "D" else 1
    if rank < min_rank:
        raise ExactAlgError("unsupported group label")
    if g < 2:
        raise ExactAlgError("base genus must be at least 2")
    degrees = _DEGREE_TABLES[group](rank)
    dim_group = _DIM_TABLES[group](rank)
    sum_rule = sum(2 * d - 1 for d in degrees) == dim_group
    return DegreeReport(
        group=group,
        rank=rank,
        g=g,
        degrees=degrees,
        dim_group=dim_group,
        sum_rule_ok=sum_rule,
        moduli_dim=(g - 1) * dim_group,
        variable_base_dim=(dim_group + 3) * (g - 1),
    )


# ---------------------------------------------------------------------------
# Local one-parameter families and stratum detectors
# ---------------------------------------------------------------------------

STRATUM_LABELS = ("b", "ac", "bm", "bb", "cc", "mm")

#: Vanishing order in t of each class's detector on the shipped fixtures.
EXPECTED_STRATUM_ORDERS = {"b": 1, "ac": 2, "bm": 1, "bb": 1, "cc": 3, "mm": 2}

#: Minimal rank at which each degeneration has room to exist.
MIN_RANK = {"b": 1, "ac": 2, "bm": 3, "bb": 2, "cc": 3, "mm": 4}


@dataclass(frozen=True)
class LocalFamily:
    """One-parameter family Q(x, t) modelling a single degeneration at t = 0.

    The merge happens at x = 0; for small generic t the family sits in the
    generic stratum.  The mm model is necessarily a product of two quadratic
    factors (two disjoint root pairs must collide simultaneously), so the
    shipped mm fixture carries its factors; without them the repeated-root
    detector of mm degenerates identically.
    """

    label: str
    n: int
    Q: Mapping[int, MultiPoly]
    factors: Optional[tuple[UniPoly, UniPoly]] = None
    offset: int = 0

    def __post_init__(self):
        if self.label not in STRATUM_LABELS:
            raise ExactAlgError(f"unknown stratum label {self.label!r}")
        if self.n < MIN_RANK[self.label]:
            raise ExactAlgError(
                f"class {self.label} needs n >= {MIN_RANK[self.label]}"
            )
        data = SpectralData(self.n, dict(self.Q))
        object.__setattr__(self, "Q", data.Q)

    def spectral_data(self) -> SpectralData:
        return SpectralData(self.n, dict(self.Q))


def _family_from_pt(label: str, n: int, pt: UniPoly, offset: int,
                    factors: Optional[tuple[UniPoly, UniPoly]] = None) -> LocalFamily:
    if pt.degree != n or not pt.is_monic():
        raise ExactAlgError("half-spectrum polynomial must be monic of degree n")
    q = {2 * j: pt.coefficient(n - j) for j in range(1, n + 1)}
    return LocalFamily(label=label, n=n, Q=q, factors=factors, offset=offset)


def local_family(label: str, offset: int = 0) -> LocalFamily:
    """Shipped fixture for a degeneration class, at its minimal rank.

    `offset` shifts every free constant by the same integer; the retry
    schedule in shipped_fixture_report walks offsets 0..5 until the genericity
    checks pass (offset 0 is generic for every shipped fixture).
    """
    x = MultiPoly.var("x")
    t = MultiPoly.var("t")
    one = MultiPoly.one()
    if label == "b":
        # Q_2 gains a double zero in x as t -> 0: disc_x = 4t.
        return LocalFamily("b", 1, {2: x * x - t}, offset=offset)
    if label == "ac":
        # Q_2n and its neighbour vanish together at the origin.
        return LocalFamily("ac", 2, {2: x - t, 4: x}, offset=offset)
    if label == "bm":
        # Simple zero of Q_6 at x = t collides with a pair collision at x = -t.
        c = 1 + offset
        a = x - t
        quad = UniPoly("q", [c * c * one - (x + t), -2 * c * one, one])
        linear = UniPoly("q", [-a, one])
        pt = linear * quad
        return _family_from_pt("bm", 3, pt, offset)
    if label == "bb":
        # Delta = x^2 - t exactly; the pair collision locus acquires a double zero.
        c = 1 + offset
        q4 = (c * c * one + 2 * c * x + t) / 4
        return LocalFamily("bb", 2, {2: c * one + x, 4: q4}, offset=offset)
    if label == "cc":
        # Depressed cubic in q - c: Delta = -4 alpha^3 - 27 beta^2.
        c = 1 + offset
        alpha = x + t
        beta = x + 2 * t
        shifted = UniPoly("q", [beta, alpha, MultiPoly.zero(), one])
        pt = UniPoly.from_multipoly(
            shifted.substitute_main(MultiPoly.var("q") - c * one), "q"
        )
        return _family_from_pt("cc", 3, pt, offset)
    if label == "mm":
        # Two quadratic factors whose root pairs collide at x = t and x = -t.
        c1, c2 = 1 + offset, 3 + offset
        f = UniPoly("q", [(c1 * c1 * one - (x - t)) / 4, c1 * one, one])
        g = UniPoly("q", [(c2 * c2 * one - (x + t)) / 4, c2 * one, one])
        return _family_from_pt("mm", 4, f * g, offset, factors=(f, g))
    raise ExactAlgError(f"unknown stratum label {label!r}")


@dataclass(frozen=True)
class StratumReport:
    label: str
    n: int
    order: int
    expected_order: int
    detector: MultiPoly  # polynomial in t after eliminating x
    offset: int
    notes: tuple[str, ...] = ()

    @property
    def matches(self) -> bool:
        return self.order == self.expected_order


def _monic_disc_in_x(p: MultiPoly) -> MultiPoly:
    """disc_x after dividing by a constant leading coefficient.

    A non-constant leading x-coefficient means the family's top behaviour
    degenerates somewhere in t, which the genericity contract excludes.
    """
    u = UniPoly.from_multipoly(p, "x")
    if u.degree < 2:
        raise FamilyDegenerateError(
            "family degenerate, choose different generic constants"
        )
    lead = u.leading_coefficient()
    if not lead.is_constant() or lead.is_zero():
        raise FamilyDegenerateError(
            "family degenerate, choose different generic constants"
        )
    monic = UniPoly("x", [c / lead.constant_value() for c in u.coeffs])
    return discriminant(monic)


def _detector(family: LocalFamily) -> tuple[MultiPoly, list[str]]:
    label = family.label
    n = family.n
    data = family.spectral_data()
    q2n = data.Q[2 * n]
    notes: list[str] = []
    if label == "b":
        return _monic_disc_in_x(q2n), notes
    pt = build_Pt(data)
    delta = discriminant(pt) if n >= 2 else MultiPoly.one()
    if label in ("ac", "bm"):
        det = resultant(
            UniPoly.from_multipoly(q2n, "x"), UniPoly.from_multipoly(delta, "x")
        )
        return det, notes
    if label in ("bb", "cc"):
        return _monic_disc_in_x(delta), notes
    if label == "mm":
        if family.factors is None:
            det = _monic_disc_in_x(delta)
            # Reached only if the square factor failed to appear; any honest
            # mm model factors and lands in the explicit-factor branch below.
            return det, notes
        f, g = family.factors
        if f * g != pt:
            raise FamilyDegenerateError(
                "family degenerate, choose different generic constants"
            )
        df, dg = discriminant(f), discriminant(g)
        res_fg = resultant(f, g)
        if delta != df * dg * res_fg * res_fg:
            raise FactorizationError("factorization violated", delta)
        notes.append(
            "disc(fg) = disc f * disc g * Res(f,g)^2 verified; detector taken on "
            "disc f * disc g, the square factor Res^2 being inert at the merge"
        )
        return _monic_disc_in_x(df * dg), notes
    raise ExactAlgError(f"unknown stratum label {label!r}")


def _genericity_checks(family: LocalFamily) -> None:
    origin = {"x": 0, "t": 0}
    data = family.spectral_data()
    q2n = data.Q[2 * family.n]

    def at_origin(p: MultiPoly) -> Scalar:
        return p.evaluate({v: origin.get(v, 0) for v in p.vars})

    if family.label in ("bb", "cc", "mm"):
        if at_origin(q2n) == 0:
            raise FamilyDegenerateError(
                "family degenerate, choose different generic constants"
            )
    if family.label in ("b", "ac", "bm"):
        if at_origin(q2n) != 0:
            raise FamilyDegenerateError(
                "family degenerate, choose different generic constants"
            )
    if family.label == "ac":
        # The double root of Pt at the merge must be exactly q = 0: with Q_2n
        # already zero there, Q_(2n-2) must vanish and the q^2 coefficient not.
        pt = build_Pt(data)
        if at_origin(pt.coefficient(1)) != 0 or at_origin(pt.coefficient(2)) == 0:
            raise FamilyDegenerateError(
                "family degenerate, choose different generic constants"
            )
    if family.label == "bm":
        # q = 0 must be a simple root at the merge: the deflation by q is a unit.
        if at_origin(data.Q[2 * family.n - 2]) == 0:
            raise FamilyDegenerateError(
                "family degenerate, choose different generic constants"
            )


def stratum_multiplicity(family: LocalFamily) -> StratumReport:
    """Vanishing order in t of the class detector on a local family.

    Detectors: disc_x(Q_2n) for b, Res_x(Q_2n, Delta) for ac and bm, and the
    repeated-zero detector disc_x(Delta) for bb, cc, mm (with the mm square
    factor split off through the product identity).  The order at t = 0 is the
    multiplicity with which the one-parameter family meets the stratum.
    """
    _genericity_checks(family)
    detector, notes = _detector(family)
    if detector.is_zero():
        raise FamilyDegenerateError(
            "family degenerate, choose different generic constants"
        )
    extra = [v for v in detector.vars if v != "t" and detector.degree(v) > 0]
    if extra:
        raise FamilyDegenerateError(
            "family degenerate, choose different generic constants"
        )
    order = order_at_zero(detector, "t")
    if family.label == "ac":
        notes = notes + [
            "computed order 2 (restriction of Delta to a zero of Q_2n is the "
            "square of the next coefficient times a unit); the set-theoretic "
            "count of this component is 1"
        ]
    return StratumReport(
        label=family.label,
        n=family.n,
        order=order,
        expected_order=EXPECTED_STRATUM_ORDERS[family.label],
        detector=detector,
        offset=family.offset,
        notes=tuple(notes),
    )


def shipped_fixture_report(
    label: str, max_retries: int = 5, start: int = 0
) -> StratumReport:
    """Run the shipped fixture, perturbing free constants by +1 on failure."""
    last: Optional[FamilyDegenerateError] = None
    for offset in range(start, start + max_retries + 1):
        try:
            return stratum_multiplicity(local_family(label, offset))
        except FamilyDegenerateError as exc:
            last = exc
    raise last if last is not None else ExactAlgError("no fixture produced")


# ---------------------------------------------------------------------------
# Family JSON round-trip
# ---------------------------------------------------------------------------


def family_to_json(family: LocalFamily) -> dict:
    """{"label", "n", "Q": {"2j": poly}} plus, when the family carries them,
    "factors": [f, g], each the list of its `q`-coefficients lowest first."""
    data = {
        "label": family.label,
        "n": family.n,
        "Q": {str(k): poly_to_json(v) for k, v in sorted(family.Q.items())},
    }
    if family.factors is not None:
        data["factors"] = [[poly_to_json(c) for c in u.coeffs] for u in family.factors]
    return data


def family_from_json(data: Mapping) -> LocalFamily:
    try:
        label = data["label"]
        n = data["n"]
        raw_q = data["Q"]
        raw_factors = data.get("factors")
    except (KeyError, TypeError) as exc:
        raise ExactAlgError("family JSON needs 'label', 'n', 'Q'") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ExactAlgError("family JSON 'n' must be an integer")
    if not isinstance(raw_q, dict):
        raise ExactAlgError("family JSON 'Q' must be an object")
    try:
        keys = [int(k) for k in raw_q]
    except ValueError as exc:
        raise ExactAlgError("family JSON 'Q' keys must be integers") from exc
    q = {k: poly_from_json(v) for k, v in zip(keys, raw_q.values())}
    factors = None
    if raw_factors is not None:
        if not isinstance(raw_factors, list) or len(raw_factors) != 2 or not all(
            isinstance(u, list) for u in raw_factors
        ):
            raise ExactAlgError("family JSON 'factors' must be two coefficient lists")
        factors = tuple(UniPoly("q", [poly_from_json(c) for c in u]) for u in raw_factors)
    return LocalFamily(label=label, n=n, Q=q, factors=factors)
