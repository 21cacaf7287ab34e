"""Exact verification suite for rank-2n symplectic spectral covers.

Everything is computed exactly over Q: a coefficient is an `int` when it is
integral and a `fractions.Fraction` otherwise, and a `float` or `bool` is
refused wherever a scalar enters.  The subpackages layer as:
`exactalg` (sparse polynomials, resultants, rational functions), `spectral`
(spectral polynomials, the discriminant factorization, degeneration
fixtures), `monodromy` (sheet permutations and collision combinatorics),
`picard` (divisor-class identities over Q(n, g)), and `cli` (the `spcover`
checklist runner).
"""

from .exactalg import (
    ExactAlgError,
    ExactDivisionError,
    MultiPoly,
    RatFunc,
    Rational,
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
from .monodromy import (
    CLASS_TABLE,
    ClassInfo,
    GlobalMonodromyReport,
    LocalMonodromy,
    MergeCensus,
    MergeVerdict,
    Permutation,
    census_table,
    centralizer_order,
    classify_merge,
    enumerate_all_merges,
    enumerate_local_monodromies,
    realizable_labels,
    sheet_involution,
    validate_global_monodromy,
)
from .picard import (
    DELTA,
    LAMBDA,
    PHI,
    CoarseIdentityReport,
    KappaForms,
    PicClass,
    StarDecompositionReport,
    coarse_identity_check,
    component_degrees,
    gl_star_check,
    kappa_forms,
    kappa_value,
    pd_classes,
    pic_to_json,
    star_class,
    star_decomposition_check,
)
from .spectral import (
    EXPECTED_STRATUM_ORDERS,
    STRATUM_LABELS,
    CoverNumerics,
    DegreeReport,
    FactorizationError,
    FactorizationResult,
    FamilyDegenerateError,
    HamiltonianMatrix,
    LocalFamily,
    RiemannHurwitzResult,
    ScalingReport,
    SpectralData,
    StratumReport,
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

__version__ = "0.1.0"
