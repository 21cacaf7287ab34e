import json
import random

import pytest

from spcover.exactalg import ExactAlgError
from spcover.monodromy import (
    CLASS_TABLE,
    LocalMonodromy,
    Permutation,
    census_table,
    centralizer_generators,
    centralizer_order,
    classify_merge,
    closure_size,
    enumerate_all_merges,
    enumerate_local_monodromies,
    realizable_labels,
    sheet_involution,
    validate_global_monodromy,
)
from spcover.spectral import MIN_RANK


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_composition_is_left_to_right():
    p = Permutation.parse(4, "(1 2)")
    q = Permutation.parse(4, "(1 3)(2 4)")
    assert (p * q)(1) == q(p(1)) == 4
    assert str(p * q) == "(1 4 2 3)"


def test_three_cycle_pair_product():
    p = Permutation.parse(6, "(1 3)(2 4)")
    q = Permutation.parse(6, "(1 5)(2 6)")
    assert str(p * q) == "(1 3 5)(2 4 6)"


def test_parse_str_round_trip():
    for s in ["()", "(1 2)", "(1 3)(2 4)", "(1 4 2 3)", "(2 3)"]:
        assert str(Permutation.parse(4, s)) == s
    p = Permutation.parse(12, "(1 12)(2 11)")
    assert str(p) == "(1 12)(2 11)"


def test_parse_rejects_garbage():
    with pytest.raises(ExactAlgError):
        Permutation.parse(4, "(1,2)")
    with pytest.raises(ExactAlgError):
        Permutation.parse(4, "(1 5)")
    with pytest.raises(ExactAlgError):
        Permutation.parse(4, "(1 2)(2 3)")


def test_inverse_and_identity():
    rng = random.Random(0)
    for _ in range(20):
        images = list(range(8))
        rng.shuffle(images)
        p = Permutation(images)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


def test_conjugate_relabels():
    rng = random.Random(1)
    for _ in range(20):
        images = list(range(6))
        rng.shuffle(images)
        p = Permutation(images)
        images2 = list(range(6))
        rng.shuffle(images2)
        g = Permutation(images2)
        c = p.conjugate(g)
        for i in range(1, 7):
            assert c(g(i)) == g(p(i))


def test_cycle_type_and_cycles():
    p = Permutation.parse(6, "(1 3 5)(2 4)")
    assert p.cycles() == ((1, 3, 5), (2, 4))
    assert p.cycle_type() == (3, 2)
    assert Permutation.identity(6).cycle_type() == ()


def test_sheet_involution():
    assert str(sheet_involution(3)) == "(1 2)(3 4)(5 6)"
    s = sheet_involution(2)
    assert s.is_involution() and (s * s).is_identity()


# ---------------------------------------------------------------------------
# local monodromy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_local_monodromy_counts(n):
    ms = enumerate_local_monodromies(n)
    assert sum(1 for m in ms if m.kind == "Qzero") == n
    assert sum(1 for m in ms if m.kind == "DeltaZero") == n * (n - 1)
    sigma = sheet_involution(n)
    for m in ms:
        assert m.perm.commutes_with(sigma)
        assert m.perm.is_involution()
    assert len({m.perm for m in ms}) == len(ms)  # all distinct


def test_local_monodromy_validation():
    with pytest.raises(ExactAlgError, match="one pair"):
        LocalMonodromy(2, "Qzero", Permutation.parse(4, "(1 3)(2 4)"))
    with pytest.raises(ExactAlgError, match="commute"):
        LocalMonodromy(2, "Qzero", Permutation.parse(4, "(1 3)"))
    with pytest.raises(ExactAlgError, match="within a pair"):
        LocalMonodromy(2, "DeltaZero", Permutation.parse(4, "(1 2)(3 4)"))
    with pytest.raises(ExactAlgError, match="commute"):
        LocalMonodromy(2, "Qzero", Permutation.parse(4, "(1 2 3 4)"))
    with pytest.raises(ExactAlgError, match="unknown local monodromy kind"):
        LocalMonodromy(2, "Branch", Permutation.parse(4, "(1 2)"))
    # both gluings of pairs 1 and 2 are legitimate
    LocalMonodromy(2, "DeltaZero", Permutation.parse(4, "(1 3)(2 4)"))
    LocalMonodromy(2, "DeltaZero", Permutation.parse(4, "(1 4)(2 3)"))


# ---------------------------------------------------------------------------
# merge classification
# ---------------------------------------------------------------------------


def test_classification_table():
    q1, q2 = LocalMonodromy.qzero(2, 1), LocalMonodromy.qzero(2, 2)
    d1 = LocalMonodromy.deltazero(2, 1, 2)
    d2 = LocalMonodromy.deltazero(2, 1, 2, twist=True)

    v = classify_merge(q1, q1)
    assert v.label == "b" and v.status == "admissible"
    assert v.product.is_identity() and v.profile == (2,)
    assert v.nodes == 1 and v.genus_delta == 0 and v.rh_consistent is False

    v = classify_merge(q1, q2)
    assert v.label is None and v.status == "inadmissible"
    assert v.sigma_invariant_cycles == 2

    v = classify_merge(q1, d1)
    assert v.label == "ac" and v.profile == (4,)
    assert str(v.product) == "(1 4 2 3)"
    assert v.fiber_size == 1  # 2n - 3 at n = 2

    v = classify_merge(d1, q1)  # order does not change the label
    assert v.label == "ac"

    v = classify_merge(d1, d1)
    assert v.label == "bb" and v.nodes == 2 and v.genus_delta == -1
    assert v.product.is_identity() and v.rh_consistent is True

    v = classify_merge(d1, d2)
    assert v.label is None and v.status == "excluded"
    assert v.product.cycle_type() == (2, 2) and v.sigma_invariant_cycles == 2


def test_classification_rank_three_and_four():
    bm = classify_merge(LocalMonodromy.qzero(3, 1), LocalMonodromy.deltazero(3, 2, 3))
    assert bm.label == "bm" and bm.profile == (2, 2, 2)
    assert bm.genus_delta == 0 and bm.fiber_size == 2 * 3 - 3

    cc = classify_merge(
        LocalMonodromy.deltazero(3, 1, 2), LocalMonodromy.deltazero(3, 1, 3)
    )
    assert cc.label == "cc" and cc.profile == (3, 3)
    assert cc.product.cycle_type() == (3, 3)

    mm = classify_merge(
        LocalMonodromy.deltazero(4, 1, 2), LocalMonodromy.deltazero(4, 3, 4)
    )
    assert mm.label == "mm" and mm.profile == (2, 2, 2, 2)
    assert mm.fiber_size == 2 * 4 - 4


def test_only_bb_changes_genus():
    for label, info in CLASS_TABLE.items():
        assert info.genus_delta == (-1 if label == "bb" else 0)
        assert info.nodes == {"b": 1, "bb": 2}.get(label, 0)
        assert info.rh_consistent == (label != "b")


def test_min_ranks_agree_with_stratum_table():
    assert {k: v.min_n for k, v in CLASS_TABLE.items()} == dict(MIN_RANK)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def expected_ordered_counts(n):
    # direct combinatorial counting of ordered collisions
    out = {"b": n}
    if n >= 2:
        out["ac"] = 4 * n * (n - 1)
        out["bb"] = n * (n - 1)
        out["excluded"] = n * (n - 1)
        out["inadmissible"] = n * (n - 1)
    if n >= 3:
        out["bm"] = 2 * n * (n - 1) * (n - 2)
        out["cc"] = 4 * n * (n - 1) * (n - 2)
    if n >= 4:
        out["mm"] = n * (n - 1) * (n - 2) * (n - 3)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_census_counts_closed_form(n):
    census = enumerate_all_merges(n)
    assert dict(census.ordered_counts) == expected_ordered_counts(n)
    assert census.excluded_ordered == n * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_one_orbit_per_realizable_label(n):
    census = enumerate_all_merges(n)
    assert census.one_orbit_per_label
    assert set(census.realizable) == {
        lab for lab, info in CLASS_TABLE.items() if n >= info.min_n
    }
    for lab in census.realizable:
        assert census.orbit_counts[lab] == 1


def test_realizable_labels():
    assert set(realizable_labels(1)) == {"b"}
    assert set(realizable_labels(2)) == {"b", "ac", "bb"}
    assert set(realizable_labels(3)) == {"b", "ac", "bb", "bm", "cc"}
    assert set(realizable_labels(4)) == set(CLASS_TABLE)


def test_census_table_shape():
    table = census_table(enumerate_all_merges(3))
    assert table == {
        "n": 3,
        "classes": {"b": 1, "ac": 1, "bm": 1, "bb": 1, "cc": 1},
        "excluded_pairs": 6,
    }
    assert list(table["classes"]) == ["b", "ac", "bm", "bb", "cc"]
    assert json.loads(json.dumps(table)) == table


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ac_fiber_size(n):
    census = enumerate_all_merges(n)
    assert census.fiber_sizes["ac"] == 2 * n - 3


# ---------------------------------------------------------------------------
# centralizer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_centralizer_order(n):
    gens = centralizer_generators(n)
    sigma = sheet_involution(n)
    for g in gens:
        assert g.commutes_with(sigma)
    assert closure_size(gens, n) == centralizer_order(n)


def test_centralizer_order_formula():
    assert [centralizer_order(n) for n in (1, 2, 3, 4)] == [2, 8, 48, 384]


# ---------------------------------------------------------------------------
# global monodromy
# ---------------------------------------------------------------------------


def _witness():
    P = Permutation
    qz = [P.parse(4, "(1 2)"), P.parse(4, "(3 4)")] * 4
    dz = [P.parse(4, "(1 3)(2 4)"), P.parse(4, "(1 4)(2 3)")] * 4
    handles = [(P.identity(4), P.identity(4))] * 2
    return qz, dz, handles


def test_global_witness_validates():
    qz, dz, handles = _witness()
    rep = validate_global_monodromy(2, 2, qz, dz, handles)
    assert rep.ok
    assert rep.product_is_identity and rep.transitive
    assert rep.commutes_with_sigma and rep.counts_match


def test_global_witness_broken_product():
    qz, dz, handles = _witness()
    rep = validate_global_monodromy(2, 2, qz[:-1] + [qz[0]], dz, handles)
    # replacing the last (3 4) by (1 2) breaks the relation but not the counts
    assert not rep.product_is_identity and not rep.ok
    assert rep.counts_match


def test_global_witness_intransitive():
    P = Permutation
    qz = [P.parse(4, "(1 2)")] * 8
    rep = validate_global_monodromy(2, 2, qz, [], check_counts=False)
    assert rep.product_is_identity  # (1 2)^8 = id
    assert not rep.transitive and not rep.ok


def test_global_count_check():
    qz, dz, handles = _witness()
    rep = validate_global_monodromy(2, 2, qz[:-2], dz, handles)
    assert rep.counts_match is False and not rep.ok
    rep = validate_global_monodromy(2, 2, qz[:-2], dz, handles, check_counts=False)
    assert rep.counts_match is None


def test_global_rejects_bad_shapes():
    P = Permutation
    with pytest.raises(ExactAlgError):
        validate_global_monodromy(2, 2, [P.parse(4, "(1 3)")], [])
    with pytest.raises(ExactAlgError):
        validate_global_monodromy(2, 1, [], [])
