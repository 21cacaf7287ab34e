"""Command-line verification runner.

`spcover` replays every identity the library implements as a flat list of
pass/fail checks over a parameter window, in text or JSON form.  Output is a
pure function of the arguments: the only randomness is the seeded generator,
and no timing or environment data is printed.  Exit status: 0 all checks
passed, 1 at least one failed, 2 bad invocation or malformed input, 3 the
output path could not be written.  Checks marked report-only record a
computed value without gating the exit status.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from . import exactalg, monodromy, picard, spectral
from .exactalg import ExactAlgError, MultiPoly, RatFunc, UniPoly

__all__ = ["VerificationReport", "run_suite", "emit_report", "main", "SCOPES"]

SCOPES = ("numerics", "factorization", "monodromy", "multiplicity", "picard")

#: Largest n (and for grid suites g) each suite will accept; larger requests clamp.
SUITE_CAPS = {
    "numerics": 10,
    "factorization": spectral.SYMBOLIC_FACTORIZATION_CAP,
    "monodromy": 6,
    "multiplicity": 4,
    "picard": 12,
}


@dataclass(frozen=True)
class VerificationReport:
    check: str
    params: Mapping[str, object]
    status: str  # 'pass' | 'fail' | 'report-only'
    detail: str
    witness: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "report-only"):
            raise ExactAlgError(f"bad status {self.status!r}")
        if self.status == "fail" and not self.witness:
            raise ExactAlgError("a failing check must carry a witness")


@dataclass
class _Ctx:
    min_n: int
    max_n: int
    min_g: int
    max_g: int
    rng: random.Random
    families: Sequence[spectral.LocalFamily] = ()

    def n_range(self, suite: str) -> range:
        cap = SUITE_CAPS[suite]
        return range(self.min_n, min(self.max_n, cap) + 1)

    def g_range(self, suite: str) -> range:
        cap = SUITE_CAPS[suite]
        return range(self.min_g, min(self.max_g, cap) + 1)

    def g_span(self, suite: str) -> str:
        r = self.g_range(suite)
        return f"{r.start}..{r.stop - 1}" if len(r) else "empty"


def _ok(check: str, params: Mapping, detail: str) -> VerificationReport:
    return VerificationReport(check, dict(params), "pass", detail)


def _bad(check: str, params: Mapping, detail: str, witness: str) -> VerificationReport:
    return VerificationReport(check, dict(params), "fail", detail, witness)


def _gate(check: str, params: Mapping, good: bool, detail: str, witness: str):
    return _ok(check, params, detail) if good else _bad(check, params, detail, witness)


def _note(check: str, params: Mapping, detail: str) -> VerificationReport:
    return VerificationReport(check, dict(params), "report-only", detail)


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


def _run_numerics(ctx: _Ctx) -> list[VerificationReport]:
    out = []
    gspan = ctx.g_span("numerics")
    for n in ctx.n_range("numerics"):
        params = {"n": n, "g": gspan}
        try:
            last = None
            for g in ctx.g_range("numerics"):
                last = spectral.cover_numerics(n, g)
            detail = (
                "zero counts close under Riemann-Hurwitz"
                if last is None
                else f"r={last.total_zeros} branch={last.branch_with_mult} "
                f"genus_hat={last.genus_hat} at g={ctx.g_range('numerics').stop - 1}"
            )
            out.append(_ok("numerics/cover-counts", params, detail))
        except ExactAlgError as exc:
            out.append(_bad("numerics/cover-counts", params, "count closure", str(exc)))

    flagged = spectral.riemann_hurwitz(2, 2, [2])
    out.append(
        _gate(
            "numerics/rh-parity-flag",
            {"sheets": 2, "g": 2, "branching": "[2]"},
            flagged.genus is None and not flagged.consistent,
            "odd right-hand side is flagged, not rounded",
            f"genus={flagged.genus}",
        )
    )

    bad = []
    for group, start in (("A", 1), ("B", 1), ("C", 1), ("D", 2), ("Sp", 1), ("GL", 1)):
        for rank in range(start, 9):
            rep = spectral.dims_and_degrees(group, rank, 2)
            if not rep.sum_rule_ok:
                bad.append(f"{group}{rank}")
    out.append(
        _gate(
            "numerics/degree-tables",
            {"groups": "A B C D Sp GL", "rank": "<=8"},
            not bad,
            "sum(2 d_j - 1) = dim G for every table",
            " ".join(bad),
        )
    )

    mism = []
    for n in ctx.n_range("numerics"):
        for g in ctx.g_range("numerics"):
            rep = spectral.dims_and_degrees("Sp", n, g)
            if rep.moduli_dim != n * (2 * n + 1) * (g - 1):
                mism.append(f"moduli n={n} g={g}")
            if rep.variable_base_dim != (n * (2 * n + 1) + 3) * (g - 1):
                mism.append(f"variable n={n} g={g}")
    out.append(
        _gate(
            "numerics/sp-moduli",
            {"n": _span(ctx.n_range("numerics")), "g": gspan},
            not mism,
            "fixed base n(2n+1)(g-1); varying base adds 3(g-1)",
            " ".join(mism),
        )
    )
    return out


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def _run_factorization(ctx: _Ctx) -> list[VerificationReport]:
    out = []
    signs = []
    for n in ctx.n_range("factorization"):
        params = {"n": n}
        try:
            fact = spectral.factorize_discriminant(n)
            out.append(
                _ok(
                    "factorization/exact-division",
                    params,
                    f"disc P = c Q_{2*n} Delta^2 with c = {fact.constant}",
                )
            )
            signs.append((n, fact.constant, fact.sign_is_minus4_pow_n))
        except spectral.FactorizationError as exc:
            out.append(
                _bad("factorization/exact-division", params, "division failed", str(exc))
            )
    if signs:
        rendered = " ".join(f"n={n}:{c}" for n, c, _ in signs)
        agree = all(s for _, _, s in signs)
        out.append(
            _note(
                "factorization/constant-sign",
                {"n": _span(ctx.n_range("factorization"))},
                f"computed {rendered}; matches (-4)^n: {agree}",
            )
        )

    for n in ctx.n_range("factorization"):
        rep = spectral.scaling_action(n)
        out.append(
            _gate(
                "factorization/scaling-weights",
                {"n": n},
                rep.all_ok,
                f"P equivariant; wt(W)={rep.weight_w} wt(Delta)={rep.weight_delta}",
                f"p={rep.p_equivariant} w={rep.w_weight_ok} delta={rep.delta_weight_ok}",
            )
        )

    for n in ctx.n_range("factorization"):
        if n in (2, 3):
            good = spectral.restricted_discriminant_square(n)
            out.append(
                _gate(
                    "factorization/restricted-square",
                    {"n": n},
                    good,
                    f"Delta at Q_{2*n}=0 is Q_{2*n-2}^2 times the deflated disc",
                    "exact division mismatch",
                )
            )

    for n in ctx.n_range("factorization"):
        bad = ""
        for k in range(5):
            h = spectral.random_hamiltonian(n, ctx.rng)
            try:
                p, data = spectral.char_poly_hamiltonian(h)
            except ExactAlgError as exc:
                bad = f"sample {k}: {exc}"
                break
            if spectral.build_P(data) != p:
                bad = f"sample {k}: coefficient extraction mismatch"
                break
        out.append(
            _gate(
                "factorization/hamiltonian-even",
                {"n": n, "samples": 5},
                not bad,
                "char polys are even, monic, and rebuild from their Q",
                bad,
            )
        )

    out.append(_resultant_spot(ctx))
    return out


def _resultant_spot(ctx: _Ctx) -> VerificationReport:
    rng = ctx.rng
    x = MultiPoly.var("x")
    bad = ""
    # power rule against a constant
    c = rng.choice([-3, -2, 2, 3])
    f = UniPoly("x", [rng.randint(-3, 3), rng.randint(-3, 3), 1])
    if exactalg.resultant(f, UniPoly("x", [c])) != Fraction(c) ** 2:
        bad = "power rule"
    # multiplicativity in the first slot
    if not bad:
        def rand_poly(deg):
            coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [1]
            return UniPoly("x", coeffs)

        f, g, h = rand_poly(2), rand_poly(1), rand_poly(2)
        lhs = exactalg.resultant(f * g, h)
        rhs = exactalg.resultant(f, h) * exactalg.resultant(g, h)
        if lhs != rhs:
            bad = "multiplicativity"
    # exact division round-trip
    if not bad:
        y = MultiPoly.var("y")
        p = x * x * y - 2 * y + rng.randint(1, 3)
        q = x + y + rng.randint(1, 3)
        if exactalg.div_exact(p * q, q) != p:
            bad = "division round-trip"
    return _gate(
        "factorization/resultant-spot",
        {"identities": 3},
        not bad,
        "power rule, multiplicativity, exact-division round-trip",
        bad,
    )


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------


def _run_monodromy(ctx: _Ctx) -> list[VerificationReport]:
    out = []
    for n in ctx.n_range("monodromy"):
        params = {"n": n}
        ms = monodromy.enumerate_local_monodromies(n)
        qn = sum(1 for m in ms if m.kind == "Qzero")
        dn = sum(1 for m in ms if m.kind == "DeltaZero")
        out.append(
            _gate(
                "monodromy/local-counts",
                params,
                qn == n and dn == n * (n - 1),
                f"{qn} pair transpositions, {dn} pair gluings",
                f"expected {n} and {n*(n-1)}",
            )
        )
        try:
            census = monodromy.enumerate_all_merges(n)
        except ExactAlgError as exc:
            out.append(_bad("monodromy/merge-census", params, "census", str(exc)))
            continue
        counts = " ".join(f"{k}:{v}" for k, v in census.ordered_counts.items())
        good = census.excluded_ordered == n * (n - 1) and census.one_orbit_per_label
        if n >= 2:
            good = good and census.fiber_sizes.get("ac") == 2 * n - 3
        out.append(
            VerificationReport(
                "monodromy/merge-census",
                dict(params),
                "pass" if good else "fail",
                f"{counts}; one orbit per class",
                json.dumps(monodromy.census_table(census), sort_keys=True),
            )
        )
        if n <= 4:
            size = monodromy.closure_size(monodromy.centralizer_generators(n), n)
            out.append(
                _gate(
                    "monodromy/centralizer-order",
                    params,
                    size == monodromy.centralizer_order(n),
                    f"closure of the generators has order {size} = 2^n n!",
                    f"{size} != {monodromy.centralizer_order(n)}",
                )
            )

    q = monodromy.LocalMonodromy.qzero(1, 1)
    v = monodromy.classify_merge(q, q)
    out.append(
        _gate(
            "monodromy/b-parity-flag",
            {"n": 1},
            v.label == "b" and v.rh_consistent is False and v.genus_delta == 0,
            "profile (2,) has odd substitution parity; flagged, genus kept",
            f"label={v.label} rh={v.rh_consistent} genus_delta={v.genus_delta}",
        )
    )

    P = monodromy.Permutation
    qz = [P.parse(4, "(1 2)"), P.parse(4, "(3 4)")] * 4
    dz = [P.parse(4, "(1 3)(2 4)"), P.parse(4, "(1 4)(2 3)")] * 4
    handles = [(P.identity(4), P.identity(4))] * 2
    rep = monodromy.validate_global_monodromy(2, 2, qz, dz, handles)
    out.append(
        _gate(
            "monodromy/global-witness",
            {"n": 2, "g": 2},
            rep.ok,
            "surface relation, transitivity, involution-equivariance, counts",
            f"product={rep.product_is_identity} transitive={rep.transitive} "
            f"sigma={rep.commutes_with_sigma} counts={rep.counts_match}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------


def _run_multiplicity(ctx: _Ctx) -> list[VerificationReport]:
    out = []
    cap = min(ctx.max_n, SUITE_CAPS["multiplicity"])
    for label in spectral.STRATUM_LABELS:
        n = spectral.MIN_RANK[label]
        if n > cap or n < ctx.min_n:
            continue
        params = {"label": label, "n": n}
        try:
            rep = spectral.shipped_fixture_report(label)
        except ExactAlgError as exc:
            out.append(
                _bad(f"multiplicity/fixture-{label}", params, "fixture", str(exc))
            )
            continue
        out.append(
            _gate(
                f"multiplicity/fixture-{label}",
                params,
                rep.matches,
                f"detector vanishes to order {rep.order} in t",
                f"order {rep.order} != expected {rep.expected_order}",
            )
        )
        if label == "ac":
            out.append(
                _note(
                    "multiplicity/ac-set-theoretic",
                    params,
                    "scheme order 2 from the squared restriction; "
                    "the set-theoretic component count is 1",
                )
            )
        if label == "mm" and rep.notes:
            out.append(_note("multiplicity/mm-square-split", params, rep.notes[0]))

    k = ctx.rng.randint(0, 5)
    t = MultiPoly.var("t")
    probe = t**k * (1 + t)
    got = exactalg.order_at_zero(probe, "t")
    out.append(
        _gate(
            "multiplicity/order-spot",
            {"k": k},
            got == k,
            f"order of t^{k}(1+t) at t=0 is {got}",
            f"{got} != {k}",
        )
    )

    for idx, fam in enumerate(ctx.families):
        params = {"index": idx, "label": fam.label, "n": fam.n}
        try:
            rep = spectral.stratum_multiplicity(fam)
        except ExactAlgError as exc:
            out.append(
                _bad(f"multiplicity/user-family-{idx}", params, "user family", str(exc))
            )
            continue
        out.append(
            _gate(
                f"multiplicity/user-family-{idx}",
                params,
                rep.matches,
                f"detector order {rep.order} (class {fam.label} expects "
                f"{rep.expected_order})",
                f"order {rep.order} != expected {rep.expected_order}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------


def _run_picard(ctx: _Ctx) -> list[VerificationReport]:
    out = []
    rep = picard.star_decomposition_check()
    out.append(
        _gate(
            "picard/decomposition",
            {"coefficients": "Q(n,g)"},
            rep.total_ok and rep.defect_ok and rep.nonadditive,
            "PD1+PD2+PD3 = star(N2); PD2 is the additivity defect and is nonzero",
            f"residual={json.dumps(picard.pic_to_json(rep.residual), sort_keys=True)} "
            f"defect={rep.defect_ok} nonzero={rep.nonadditive}",
        )
    )
    out.append(
        _gate(
            "picard/lambda-lines",
            {"coefficients": "Q(n,g)"},
            all(rep.lines_ok),
            "each component class isolates lambda with the delta/12 tail",
            f"lines={rep.lines_ok}",
        )
    )

    kf = picard.kappa_forms()
    vals_ok = picard.kappa_value(1) == Fraction(5, 36) and picard.kappa_value(
        2
    ) == Fraction(19, 728)
    out.append(
        _gate(
            "picard/kappa-forms",
            {"forms": 3},
            kf.all_equal and vals_ok,
            "sum, polynomial, and de-radicalized forms agree; 5/36 and 19/728",
            f"equal={kf.all_equal} values={vals_ok}",
        )
    )

    ci = picard.coarse_identity_check()
    out.append(
        _gate(
            "picard/coarse-identity",
            {"coefficients": "Q(n,g)"},
            ci.all_ok,
            "lambda = N kappa (g-1) phi + c1 PD1 + c2 PD2 + c3 PD3 + delta/12",
            f"residual={json.dumps(picard.pic_to_json(ci.residual), sort_keys=True)} "
            f"split={ci.c2_split_ok} psi={ci.psi_ok} delta={ci.delta_coefficient_ok}",
        )
    )

    out.append(
        _gate(
            "picard/gl-line",
            {"degree": "n(n-1)"},
            picard.gl_star_check(),
            "the degree-n(n-1) star class isolates lambda the same way",
            "line identity failed",
        )
    )

    misses = []
    for n in ctx.n_range("picard"):
        for g in ctx.g_range("picard"):
            if not picard.decomposition_numeric(n, g):
                misses.append(f"dec({n},{g})")
            if not picard.coarse_identity_numeric(n, g):
                misses.append(f"coarse({n},{g})")
    out.append(
        _gate(
            "picard/numeric-grid",
            {"n": _span(ctx.n_range("picard")), "g": ctx.g_span("picard")},
            not misses,
            "independent Fraction evaluation of both identities on the grid",
            " ".join(misses),
        )
    )

    a, b = ctx.rng.randint(1, 5), ctx.rng.randint(1, 5)
    x = MultiPoly.var("x")
    lhs = RatFunc((x + a) * (x + b), x + a)
    good = exactalg.ratfunc_equal(lhs, RatFunc(x + b))
    out.append(
        _gate(
            "picard/ratfunc-spot",
            {"a": a, "b": b},
            good,
            "uncancelled quotient equals its reduced form by cross-multiplication",
            f"(x+{a})(x+{b})/(x+{a}) != x+{b}",
        )
    )
    return out


_RUNNERS: Mapping[str, Callable[[_Ctx], list[VerificationReport]]] = {
    "numerics": _run_numerics,
    "factorization": _run_factorization,
    "monodromy": _run_monodromy,
    "multiplicity": _run_multiplicity,
    "picard": _run_picard,
}


def _span(r: range) -> str:
    return f"{r.start}..{r.stop - 1}" if len(r) else "empty"


def run_suite(
    scope: str = "all",
    min_n: int = 1,
    max_n: int = 4,
    min_g: int = 2,
    max_g: int = 5,
    seed: int = 0,
    families: Sequence[spectral.LocalFamily] = (),
) -> list[VerificationReport]:
    """Run one scope (or all of them, in fixed order) and collect reports."""
    if min_n < 1 or min_g < 2 or min_n > max_n or min_g > max_g:
        raise ExactAlgError("need 1 <= min-n <= max-n and 2 <= min-g <= max-g")
    if scope != "all" and scope not in SCOPES:
        raise ExactAlgError(f"unknown scope {scope!r}")
    ctx = _Ctx(min_n, max_n, min_g, max_g, random.Random(seed), tuple(families))
    out: list[VerificationReport] = []
    for name in SCOPES if scope == "all" else (scope,):
        out.extend(_RUNNERS[name](ctx))
    return out


def emit_report(reports: Sequence[VerificationReport], fmt: str = "text") -> str:
    """Render reports deterministically as a text table or sorted JSON."""
    counts = {"pass": 0, "fail": 0, "report-only": 0}
    for r in reports:
        counts[r.status] += 1
    if fmt == "json":
        payload = {
            "checks": [
                {
                    "check": r.check,
                    "params": dict(r.params),
                    "status": r.status,
                    "detail": r.detail,
                    "witness": r.witness,
                }
                for r in reports
            ],
            "summary": counts,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ExactAlgError(f"unknown format {fmt!r}")
    lines = []
    wc = max([len(r.check) for r in reports], default=5)
    wp = max(
        [len(_render_params(r.params)) for r in reports], default=6
    )
    lines.append(f"{'status':<12} {'check':<{wc}} {'params':<{wp}} detail")
    lines.append("-" * (12 + 1 + wc + 1 + wp + 1 + 6))
    for r in reports:
        lines.append(
            f"{r.status:<12} {r.check:<{wc}} {_render_params(r.params):<{wp}} {r.detail}"
        )
        if r.status == "fail":
            lines.append(f"{'':<12} {'':<{wc}} {'':<{wp}} witness: {r.witness}")
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['report-only']} report-only"
    )
    lines.append("FAIL" if counts["fail"] else "OK")
    return "\n".join(lines) + "\n"


def _render_params(params: Mapping[str, object]) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spcover",
        description="Replay the exact spectral-cover identities as a checklist.",
    )
    p.add_argument("--scope", choices=("all",) + SCOPES, default="all")
    p.add_argument("--min-n", type=int, default=1, metavar="N")
    p.add_argument("--max-n", type=int, default=4, metavar="N")
    p.add_argument("--min-g", type=int, default=2, metavar="G")
    p.add_argument("--max-g", type=int, default=5, metavar="G")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--family",
        action="append",
        default=[],
        metavar="PATH",
        help="JSON file with a local family to run through the stratum detector "
        "(repeatable)",
    )
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    families = []
    for path in args.family:
        try:
            with open(path) as fh:
                payload = json.load(fh)
            families.append(spectral.family_from_json(payload))
        except (OSError, json.JSONDecodeError, ExactAlgError) as exc:
            print(f"spcover: cannot load family {path}: {exc}", file=sys.stderr)
            return 2

    try:
        reports = run_suite(
            scope=args.scope,
            min_n=args.min_n,
            max_n=args.max_n,
            min_g=args.min_g,
            max_g=args.max_g,
            seed=args.seed,
            families=families,
        )
    except ExactAlgError as exc:
        print(f"spcover: {exc}", file=sys.stderr)
        return 2

    text = emit_report(reports, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"spcover: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 1 if any(r.status == "fail" for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
