import random
from fractions import Fraction

import pytest

from spcover.exactalg import ExactAlgError, MultiPoly, UniPoly, det_bareiss
from spcover.spectral import (
    EXPECTED_STRATUM_ORDERS,
    MIN_RANK,
    STRATUM_LABELS,
    FactorizationError,
    FamilyDegenerateError,
    HamiltonianMatrix,
    LocalFamily,
    SpectralData,
    _berkowitz,
    build_P,
    build_Pt,
    char_poly_hamiltonian,
    cover_numerics,
    dims_and_degrees,
    factorize_discriminant,
    family_from_json,
    family_to_json,
    local_family,
    random_hamiltonian,
    restricted_discriminant_square,
    riemann_hurwitz,
    scaling_action,
    shipped_fixture_report,
    stratum_multiplicity,
)

x = MultiPoly.var("x")
t = MultiPoly.var("t")


# ---------------------------------------------------------------------------
# spectral polynomials
# ---------------------------------------------------------------------------


def test_build_p_is_pt_of_v_squared():
    data = SpectralData.symbolic(3)
    p = build_P(data)
    pt = build_Pt(data)
    v = MultiPoly.var("v")
    assert pt.substitute_main(v * v) == p.substitute_main(v)
    assert p.degree == 6 and p.is_monic()


def test_spectral_data_validation():
    with pytest.raises(ExactAlgError, match="keys"):
        SpectralData(2, {2: x})


# ---------------------------------------------------------------------------
# discriminant factorization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factorization_constant_is_minus_four_to_n(n):
    fact = factorize_discriminant(n)
    assert fact.constant == Fraction(-4) ** n
    assert fact.sign_is_minus4_pow_n
    data = SpectralData.symbolic(n)
    assert fact.w_reduced == fact.constant * data.Q[2 * n] * fact.delta


def test_factorization_small_closed_forms():
    q2 = MultiPoly.var("Q2")
    assert factorize_discriminant(1).w == -4 * q2
    q4 = MultiPoly.var("Q4")
    delta = q2 * q2 - 4 * q4
    f2 = factorize_discriminant(2)
    assert f2.delta == delta
    assert f2.w == 16 * q4 * delta * delta


def test_factorization_concrete_data():
    # Pt = (q+1)(q+2): Delta = 1, so W = 16 * 2 * 1
    f = factorize_discriminant(SpectralData(2, {2: 3, 4: 2}))
    assert f.constant == 16
    assert f.delta.constant_value() == 1
    assert f.w.constant_value() == 32


def test_factorization_degenerate_data_raises():
    with pytest.raises(FactorizationError, match="factorization violated"):
        factorize_discriminant(SpectralData(2, {2: 3, 4: 0}))  # Q_2n = 0
    with pytest.raises(FactorizationError, match="factorization violated"):
        factorize_discriminant(SpectralData(2, {2: -2, 4: 1}))  # Delta = 0


def test_symbolic_cap():
    with pytest.raises(ExactAlgError, match="capped"):
        factorize_discriminant(5)


@pytest.mark.parametrize("n", [2, 3])
def test_restricted_discriminant_square(n):
    assert restricted_discriminant_square(n)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scaling_action_reports_ok(n):
    rep = scaling_action(n)
    assert rep.all_ok
    assert rep.weight_w == 2 * n * (2 * n - 1)
    assert rep.weight_delta == 2 * n * (n - 1)


@pytest.mark.parametrize("n", [2, 3])
def test_scaling_weights_by_monomial_scan(n):
    # independent of the substitution route: every monomial of W (resp Delta)
    # must carry total weight sum(2j * deg_Q2j) equal to the declared weight
    fact = factorize_discriminant(n)
    for poly, weight in ((fact.w, 2 * n * (2 * n - 1)), (fact.delta, 2 * n * (n - 1))):
        weights = {v: int(v[1:]) for v in poly.vars}
        for exps in poly.terms:
            got = sum(w * e for w, e in zip(weights.values(), exps))
            assert got == weight


# ---------------------------------------------------------------------------
# Hamiltonian characteristic polynomials
# ---------------------------------------------------------------------------


def test_char_poly_rank_one_symbolic():
    a, b, c = (MultiPoly.var(s) for s in "abc")
    p, data = char_poly_hamiltonian(HamiltonianMatrix(1, [[a]], [[b]], [[c]]))
    assert p.coefficient(0) == -(a * a + b * c)
    assert p.coefficient(1).is_zero()
    assert data.Q[2] == -(a * a + b * c)


def test_char_poly_even_seeded():
    rng = random.Random(0)
    for n in (1, 2, 3):
        for _ in range(10):
            h = random_hamiltonian(n, rng)
            p, data = char_poly_hamiltonian(h)
            assert p.degree == 2 * n and p.is_monic()
            for k in range(1, 2 * n, 2):
                assert p.coefficient(k).is_zero()
            assert build_P(data) == p


def test_berkowitz_hand_values():
    def const(rows):
        return [[MultiPoly.const(e) for e in r] for r in rows]

    assert _berkowitz([]) == [1]
    assert _berkowitz(const([[5]])) == [1, -5]
    assert _berkowitz(const([[1, 2], [3, 4]])) == [1, -5, -2]
    # zero corner; trace 4, principal 2-minors summing to 1, determinant -5
    m = const([[0, 1, 2], [0, 3, 1], [1, 0, 1]])
    assert _berkowitz(m) == [1, -4, 1, 5]


def _char_poly_by_bareiss(h):
    # Independent reference: det(vI - X) by fraction-free elimination over Q[v].
    v = MultiPoly.var("v")
    x = h.full()
    size = 2 * h.n
    rows = [[(v if i == j else 0) - x[i][j] for j in range(size)] for i in range(size)]
    return UniPoly.from_multipoly(det_bareiss(rows), "v")


def test_char_poly_matches_bareiss_reference():
    rng = random.Random(2)
    samples = [random_hamiltonian(n, rng) for n in range(1, 6) for _ in range(3)]
    a, b, c, d = (MultiPoly.var(s) for s in "abcd")
    samples.append(
        HamiltonianMatrix(2, [[a, b], [c, d]], [[a, c], [c, b]], [[d, 1], [1, a]])
    )
    for h in samples:
        assert char_poly_hamiltonian(h)[0] == _char_poly_by_bareiss(h)


def test_hamiltonian_requires_symmetric_blocks():
    with pytest.raises(ExactAlgError, match="symmetric"):
        HamiltonianMatrix(2, [[1, 0], [0, 1]], [[0, 1], [2, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ExactAlgError, match="2 x 2"):
        HamiltonianMatrix(2, [[1]], [[0]], [[0]])


# ---------------------------------------------------------------------------
# numerology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,g,simple,double,total,branch,genus_hat,comps",
    [
        (1, 2, 4, 0, 4, 4, 5, (2, 2, 0)),
        (2, 2, 8, 8, 16, 24, 17, (4, 8, 4)),
        (3, 4, 36, 72, 108, 180, 109, (6, 18, 12)),
    ],
)
def test_cover_numerics_frozen_table(n, g, simple, double, total, branch, genus_hat, comps):
    c = cover_numerics(n, g)
    assert (c.simple_zeros, c.double_zeros, c.total_zeros) == (simple, double, total)
    assert c.branch_with_mult == branch
    assert c.genus_hat == genus_hat
    assert c.component_degrees == comps
    assert c.weight == 2 * n * (2 * n - 1)


def test_cover_numerics_guards():
    with pytest.raises(ExactAlgError):
        cover_numerics(0, 2)
    with pytest.raises(ExactAlgError):
        cover_numerics(1, 1)


def test_riemann_hurwitz():
    assert riemann_hurwitz(2, 2, []).genus == 3  # unramified double cover
    assert riemann_hurwitz(4, 2, [2] * 8 + [2, 2] * 8).genus == 17
    flagged = riemann_hurwitz(2, 2, [2])
    assert flagged.genus is None and not flagged.consistent
    with pytest.raises(ExactAlgError):
        riemann_hurwitz(2, 2, [0])


@pytest.mark.parametrize(
    "group,rank,degrees,dim",
    [
        ("A", 3, (2, 3, 4), 15),
        ("B", 2, (2, 4), 10),
        ("C", 3, (2, 4, 6), 21),
        ("D", 4, (2, 4, 6, 4), 28),
        ("Sp", 2, (2, 4), 10),
        ("GL", 4, (1, 2, 3, 4), 16),
    ],
)
def test_degree_tables(group, rank, degrees, dim):
    rep = dims_and_degrees(group, rank, 2)
    assert rep.degrees == degrees
    assert rep.dim_group == dim
    assert rep.sum_rule_ok


def test_degree_sum_rule_all_ranks():
    for group, start in (("A", 1), ("B", 1), ("C", 1), ("D", 2), ("Sp", 1), ("GL", 1)):
        for rank in range(start, 11):
            assert dims_and_degrees(group, rank, 2).sum_rule_ok


def test_sp_moduli_dimensions():
    rep = dims_and_degrees("Sp", 3, 2)
    assert rep.moduli_dim == 3 * 7 * 1 == 21
    assert rep.variable_base_dim == 24
    rep = dims_and_degrees("Sp", 2, 5)
    assert rep.moduli_dim == 40 and rep.variable_base_dim == 52


def test_degree_table_guards():
    with pytest.raises(ExactAlgError, match="unsupported group label"):
        dims_and_degrees("E", 8, 2)
    with pytest.raises(ExactAlgError, match="unsupported group label"):
        dims_and_degrees("D", 1, 2)


# ---------------------------------------------------------------------------
# local families and stratum multiplicities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", STRATUM_LABELS)
def test_fixture_orders_match(label):
    rep = shipped_fixture_report(label)
    assert rep.order == EXPECTED_STRATUM_ORDERS[label]
    assert rep.n == MIN_RANK[label]
    assert rep.offset == 0


def test_fixture_detectors_closed_forms():
    # hand-computable detectors: disc_x(x^2 - t) = 4t for b and bb,
    # Res_x(x, (x-t)^2 - 4x) = t^2 for ac, disc_x(x^2 - t^2) = 4t^2 for mm
    assert shipped_fixture_report("b").detector == 4 * t
    assert shipped_fixture_report("bb").detector == 4 * t
    assert shipped_fixture_report("ac").detector == t * t
    assert shipped_fixture_report("mm").detector == 4 * t * t


def test_bm_detector_by_root_product():
    # Q6 = (x-t)(x+t-1) is monic in x, so Res_x(Q6, Delta) = Delta(t) Delta(1-t)
    # with Delta = 4(x+t)((x-t-1)^2 - (x+t)); by hand:
    #   Delta(t) = 8t(1-2t)^2,  Delta(1-t) = 4(4t^2-1)^2
    rep = shipped_fixture_report("bm")
    one = MultiPoly.one()
    expected = (
        8 * t * (one - 2 * t) ** 2 * 4 * (4 * t * t - one) ** 2
    )
    assert rep.detector == expected
    assert rep.order == 1


def test_cc_detector_vanishes_to_third_order():
    rep = shipped_fixture_report("cc")
    assert rep.order == 3
    # regression: detector = (19683/16) t^3 (1 - t)
    assert rep.detector == Fraction(19683, 16) * (t**3 - t**4)


def test_ac_report_notes_set_theoretic_count():
    rep = shipped_fixture_report("ac")
    assert any("set-theoretic" in note for note in rep.notes)


def test_mm_square_split_verified():
    rep = shipped_fixture_report("mm")
    assert any("Res(f,g)^2" in note for note in rep.notes)
    fam = local_family("mm")
    f, g = fam.factors
    pt = build_Pt(fam.spectral_data())
    assert f * g == pt


def test_mm_without_factors_is_degenerate():
    # dropping the factorization leaves only disc_x(Delta), which vanishes
    # identically for any mm model
    shipped = local_family("mm")
    fam = LocalFamily(shipped.label, shipped.n, shipped.Q)
    assert fam.factors is None
    with pytest.raises(FamilyDegenerateError, match="family degenerate"):
        stratum_multiplicity(fam)


def test_retry_schedule_walks_offsets():
    # offset -1 makes the bb center 0: Q_4(0,0) = 0 fails genericity, and the
    # schedule moves on to offset 0
    with pytest.raises(FamilyDegenerateError, match="choose different generic"):
        stratum_multiplicity(local_family("bb", offset=-1))
    rep = shipped_fixture_report("bb", start=-1)
    assert rep.offset == 0 and rep.order == 1


def test_genericity_rejects_wrong_center():
    # boundary families must actually meet the boundary at the origin
    fam = LocalFamily("b", 1, {2: x * x - t + 1})
    with pytest.raises(FamilyDegenerateError):
        stratum_multiplicity(fam)


def test_genericity_ac_needs_an_exact_double_root_at_zero():
    # Pt at the origin must be q^2 times a unit: Q_(2n-2)(0) = 0 and q^2 survives
    for fam in (
        LocalFamily("ac", 2, {2: x - t + 1, 4: x}),  # only a simple root
        LocalFamily("ac", 3, {2: x, 4: x - t, 6: x}),  # a triple root
    ):
        with pytest.raises(FamilyDegenerateError):
            stratum_multiplicity(fam)


def test_genericity_rejects_nonconstant_leading_coefficient():
    q2 = t * x + 1
    q4 = (q2 * q2 - (t * x * x - t)) / 4  # Delta = t x^2 - t, lc_x not constant
    with pytest.raises(FamilyDegenerateError):
        stratum_multiplicity(LocalFamily("bb", 2, {2: q2, 4: q4}))


def test_family_json_round_trip():
    for label in STRATUM_LABELS:
        fam = local_family(label)
        back = family_from_json(family_to_json(fam))
        assert back.label == fam.label and back.n == fam.n
        assert dict(back.Q) == dict(fam.Q)
        assert back.factors == fam.factors
        assert stratum_multiplicity(back).order == EXPECTED_STRATUM_ORDERS[label]


def test_family_validation():
    with pytest.raises(ExactAlgError, match="unknown stratum label"):
        LocalFamily("zz", 2, {2: x, 4: x})
    with pytest.raises(ExactAlgError, match="needs n >="):
        LocalFamily("mm", 2, {2: x, 4: x})
    with pytest.raises(ExactAlgError, match="family JSON"):
        family_from_json({"label": "b"})
    bb = family_to_json(local_family("bb"))
    for n in (True, "2", 2.0):
        with pytest.raises(ExactAlgError, match="'n' must be an integer"):
            family_from_json({**bb, "n": n})
    mm = family_to_json(local_family("mm"))
    f, g = mm["factors"]
    for factors in ([f], f, [f, "g"]):
        with pytest.raises(ExactAlgError, match="'factors'"):
            family_from_json({**mm, "factors": factors})
    q_in_coeff = {"vars": ["q"], "terms": [[1, 1, 1]]}
    with pytest.raises(ExactAlgError, match="mentions 'q'"):
        family_from_json({**mm, "factors": [[q_in_coeff], g]})


def test_mm_factors_must_multiply_to_pt():
    mm = family_to_json(local_family("mm"))
    f, _ = mm["factors"]
    with pytest.raises(FamilyDegenerateError):
        stratum_multiplicity(family_from_json({**mm, "factors": [f, f]}))
