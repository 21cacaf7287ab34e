"""Output checks for the benchmark's ops, run outside the timed interval.

A `verify-*` op is one `spcover --format json` process; it passes only with
exit 0, no traceback on stderr, a parsable report with no failing check, and
exactly the check-name list its window fixes.  A `charpoly-batch` op is six
characteristic polynomials; each must be monic of degree 2n with zero odd
coefficients, rebuild from its SpectralData, and agree with a plain-Fraction
Gaussian det(kI - X) at 2n + 1 integer points.  That determinant shares no
code with `spcover.exactalg`.
"""

from __future__ import annotations

import json
from fractions import Fraction

_COVER_DEFAULT = ["numerics/cover-counts"] * 4
_NUMERICS_TAIL = ["numerics/rh-parity-flag", "numerics/degree-tables", "numerics/sp-moduli"]
_MONODROMY_TAIL = ["monodromy/b-parity-flag", "monodromy/global-witness"]
_PICARD = [
    "picard/decomposition",
    "picard/lambda-lines",
    "picard/kappa-forms",
    "picard/coarse-identity",
    "picard/gl-line",
    "picard/numeric-grid",
    "picard/ratfunc-spot",
]

#: The ordered check names each window produces, whatever the seed.
EXPECTED_CHECKS = {
    # n 1..4, g 2..5: every suite runs at every n.
    "verify-default": _COVER_DEFAULT + _NUMERICS_TAIL
    + ["factorization/exact-division"] * 4
    + ["factorization/constant-sign"]
    + ["factorization/scaling-weights"] * 4
    + ["factorization/restricted-square"] * 2
    + ["factorization/hamiltonian-even"] * 4
    + ["factorization/resultant-spot"]
    + ["monodromy/local-counts", "monodromy/merge-census", "monodromy/centralizer-order"] * 4
    + _MONODROMY_TAIL
    + [
        "multiplicity/fixture-b",
        "multiplicity/fixture-ac",
        "multiplicity/ac-set-theoretic",
        "multiplicity/fixture-bm",
        "multiplicity/fixture-bb",
        "multiplicity/fixture-cc",
        "multiplicity/fixture-mm",
        "multiplicity/mm-square-split",
        "multiplicity/order-spot",
    ]
    + _PICARD,
    # n 5..12, g 2..12: factorization and multiplicity fixtures cap at n = 4,
    # numerics at n = 10, the merge census at n = 6.
    "verify-high": ["numerics/cover-counts"] * 6 + _NUMERICS_TAIL
    + ["factorization/resultant-spot"]
    + ["monodromy/local-counts", "monodromy/merge-census"] * 2
    + _MONODROMY_TAIL
    + ["multiplicity/order-spot"]
    + _PICARD,
}


def verify_failure(window: str, returncode: int, stdout: bytes, stderr: bytes) -> str:
    """Why a `spcover --format json` run is wrong, or "" when it is right."""
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [b""]
        return f"exit code {returncode}: {last[0].decode(errors='replace')}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    try:
        report = json.loads(stdout)
        names = [c["check"] for c in report["checks"]]
        failing = report["summary"]["fail"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable report: {exc!r}"
    if failing > 0:
        return f"summary.fail = {failing}"
    if names != EXPECTED_CHECKS[window]:
        return "check-name list differs from the window's"
    return ""


def fraction_det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over plain Fractions."""
    a = [[Fraction(x) for x in row] for row in matrix]
    size = len(a)
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        row_k = a[k]
        det *= row_k[k]
        for i in range(k + 1, size):
            row_i = a[i]
            f = row_i[k] / row_k[k]
            if f:
                for j in range(k + 1, size):
                    row_i[j] -= f * row_k[j]
    return det


def hamiltonian_rows(A, B, C) -> list[list[int]]:
    """X = [[A, B], [C, -A^T]] as plain integer rows."""
    n = len(A)
    top = [list(A[i]) + list(B[i]) for i in range(n)]
    bottom = [list(C[i]) + [-A[j][i] for j in range(n)] for i in range(n)]
    return top + bottom


def charpoly_failure(blocks, p, data) -> str:
    """Why (p, data) is not the char poly of X built from `blocks`, or ""."""
    from spcover.spectral import build_P

    n = len(blocks[0])
    size = 2 * n
    if p.var != "v" or p.degree != size or p.coefficient(size) != 1:
        return f"n={n}: not monic of degree {size}"
    coeffs = [p.coefficient(k) for k in range(size + 1)]
    if not all(c.is_constant() for c in coeffs):
        return f"n={n}: non-constant coefficient"
    values = [c.constant_value() for c in coeffs]
    if any(values[k] for k in range(1, size, 2)):
        return f"n={n}: odd coefficient survives"
    if build_P(data) != p:
        return f"n={n}: build_P(data) != p"
    x = hamiltonian_rows(*blocks)
    for k in range(-n, n + 1):
        at_k = Fraction(0)
        for c in reversed(values):
            at_k = at_k * k + c
        shifted = [
            [(k if i == j else 0) - x[i][j] for j in range(size)] for i in range(size)
        ]
        if at_k != fraction_det(shifted):
            return f"n={n}: p({k}) != det({k}I - X)"
    return ""
