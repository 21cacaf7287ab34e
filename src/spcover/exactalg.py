"""Exact sparse polynomial and rational-function arithmetic.

Everything here is exact: a coefficient is an `int` when it is integral and a
`fractions.Fraction` otherwise (never a `float` or `bool`), monomials are
exponent vectors over a canonically ordered variable tuple, and the only
polynomial "division" offered is exact division (remainder must vanish).
Determinants of polynomial matrices are computed by Bareiss fraction-free
elimination, which keeps every intermediate entry inside the polynomial ring;
resultants and discriminants are Sylvester determinants evaluated that way.

No floating point, no GCD-based simplification, no factorization.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]

__all__ = [
    "Rational",
    "MultiPoly",
    "UniPoly",
    "RatFunc",
    "ExactAlgError",
    "ExactDivisionError",
    "det_bareiss",
    "discriminant",
    "div_exact",
    "order_at_zero",
    "poly_from_json",
    "poly_to_json",
    "ratfunc_equal",
    "resultant",
]


class ExactAlgError(ValueError):
    """Raised when an exact-arithmetic precondition is violated."""


class ExactDivisionError(ExactAlgError):
    """Exact division failed; `remainder` witnesses the failure."""

    def __init__(self, message: str, remainder: "MultiPoly"):
        super().__init__(message)
        self.remainder = remainder


_DIGIT_RUN = re.compile(r"(\d+)")


def _natural_key(name: str) -> tuple:
    # "Q2" < "Q4" < "Q10": digit runs compare as integers, text as text.
    parts = _DIGIT_RUN.split(name)
    key = []
    for i, part in enumerate(parts):
        if i % 2:
            key.append((0, int(part), ""))
        elif part:
            key.append((1, 0, part))
    return tuple(key)


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _as_coeff(value: Scalar) -> Scalar:
    """An exact scalar as a coefficient: `int` when integral, else `Fraction`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise ExactAlgError(f"expected an exact rational, got {type(value).__name__}")


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient of two coefficients; `int` when it is integral."""
    if isinstance(a, int) and isinstance(b, int) and not a % b:
        return a // b
    return _as_coeff(Fraction(a) / b)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    A coefficient is stored as an `int` when it is integral and as a
    `Fraction` otherwise; sums and products of stored coefficients may leave an
    integral `Fraction`, which compares and prints like the `int`.

    Variables are kept in a fixed deterministic order (natural sort of names),
    exponent vectors align with that order, and zero coefficients are never
    stored.  Instances are treated as immutable; all operations return new
    polynomials.  Two polynomials are equal when their term maps agree after
    aligning variable sets, so `x**2` built over `(x,)` equals `x**2` built
    over `(t, x)`.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Scalar]):
        given = tuple(variables)
        order = sorted(set(given), key=_natural_key)
        if len(order) != len(given):
            raise ExactAlgError("duplicate variable names")
        perm = [given.index(v) for v in order]
        clean: dict[tuple[int, ...], Scalar] = {}
        width = len(order)
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ExactAlgError("exponent vector length does not match variable count")
            if any(e < 0 for e in exps):
                raise ExactAlgError("negative exponent")
            c = _as_coeff(coeff)
            if c:
                key = tuple(exps[i] for i in perm)
                clean[key] = clean.get(key, 0) + c
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "vars", tuple(order))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], Scalar]) -> "MultiPoly":
        # Internal fast path: inputs must already be canonical.
        self = object.__new__(cls)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw((), {})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        c = _as_coeff(value)
        return cls._raw((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls._raw((name,), {(1,): 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ExactAlgError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree(self, name: str) -> int:
        if not self.terms:
            return -1
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], Scalar]:
        """Graded-lex leading (exponent, coefficient); errors on zero."""
        if not self.terms:
            raise ExactAlgError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def leading_coefficient(self) -> Scalar:
        return self.leading_term()[1]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def embed(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a superset of variables (canonical order enforced)."""
        order = tuple(sorted(set(variables), key=_natural_key))
        if order == self.vars:
            return self
        missing = [v for v in self.vars if v not in order]
        if missing:
            raise ExactAlgError(f"embedding drops variables {missing}")
        pos = [order.index(v) for v in self.vars]
        width = len(order)
        terms: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in self.terms.items():
            key = [0] * width
            for p, e in zip(pos, exps):
                key[p] = e
            terms[tuple(key)] = coeff
        return MultiPoly._raw(order, terms)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        if self.vars == other.vars:
            return self, other
        union = tuple(sorted(set(self.vars) | set(other.vars), key=_natural_key))
        return self.embed(union), other.embed(union)

    def __add__(self, other) -> "MultiPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            elif exps in terms:
                del terms[exps]
        return MultiPoly._raw(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if not c:
                return MultiPoly.zero()
            return MultiPoly._raw(self.vars, {e: v * c for e, v in self.terms.items()})
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._aligned(other)
        if not a.terms or not b.terms:
            return MultiPoly._raw(a.vars, {})
        if len(b.terms) == 1:
            (be, bc), = b.terms.items()
            if not any(be):
                return MultiPoly._raw(a.vars, {e: c * bc for e, c in a.terms.items()})
            return MultiPoly._raw(
                a.vars,
                {tuple(x + y for x, y in zip(e, be)): c * bc for e, c in a.terms.items()},
            )
        if len(a.terms) == 1:
            return b * a
        out: dict[tuple[int, ...], Scalar] = {}
        b_items = list(b.terms.items())
        for ae, ac in a.terms.items():
            for be, bc in b_items:
                key = tuple(x + y for x, y in zip(ae, be))
                new = out.get(key, 0) + ac * bc
                if new:
                    out[key] = new
                elif key in out:
                    del out[key]
        return MultiPoly._raw(a.vars, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        if isinstance(other, (MultiPoly, RatFunc)):
            return NotImplemented
        c = _as_coeff(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return self * _div(1, c)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ExactAlgError("exponent must be a nonnegative integer")
        result = MultiPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    __hash__ = None  # mutable-dict payload; never used as a mapping key

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(name)
        terms: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1 :]
                terms[key] = terms.get(key, 0) + coeff * e
                if not terms[key]:
                    del terms[key]
        return MultiPoly._raw(self.vars, terms)

    def substitute(self, mapping: Mapping[str, Union["MultiPoly", Scalar]]) -> "MultiPoly":
        """Simultaneously replace variables by polynomials (single pass)."""
        images = {
            name: value if isinstance(value, MultiPoly) else MultiPoly.const(value)
            for name, value in mapping.items()
        }
        touched = [v for v in self.vars if v in images]
        if not touched:
            return self
        kept = [v for v in self.vars if v not in images]
        powers: dict[str, list[MultiPoly]] = {v: [MultiPoly.one()] for v in touched}
        result = MultiPoly.zero()
        for exps, coeff in self.sorted_terms():
            factor = MultiPoly._raw(
                tuple(kept),
                {
                    tuple(e for v, e in zip(self.vars, exps) if v not in images): coeff,
                },
            )
            # `kept` preserves canonical order, being a subsequence of self.vars.
            for v in touched:
                e = exps[self.vars.index(v)]
                cache = powers[v]
                while len(cache) <= e:
                    cache.append(cache[-1] * images[v])
                if e:
                    factor = factor * cache[e]
            result = result + factor
        return result

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        total = 0
        values = []
        for v in self.vars:
            if v not in point:
                raise ExactAlgError(f"no value supplied for variable {v!r}")
            values.append(_as_coeff(point[v]))
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val**e
            total += term
        return total

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiPoly({self!s})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exps) if e
            )
            if not mono:
                body = str(coeff)
            elif coeff == 1:
                body = mono
            elif coeff == -1:
                body = f"-{mono}"
            else:
                body = f"{coeff}*{mono}"
            pieces.append(body)
        out = pieces[0]
        for body in pieces[1:]:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return out


def _coerce_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(value)
    return NotImplemented


def div_exact(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises ExactDivisionError on any remainder.

    Greedy graded-lex leading-term cancellation.  When `den` divides `num`
    exactly this always terminates with zero remainder; otherwise the first
    non-divisible leading term aborts with the current remainder as witness.
    """
    if den.is_zero():
        raise ZeroDivisionError("exact division by the zero polynomial")
    if num.is_zero():
        return MultiPoly.zero()
    a, b = num._aligned(den)
    lt_e, lt_c = b.leading_term()
    d_items = [(e, c) for e, c in b.terms.items() if e != lt_e]
    rem = dict(a.terms)
    quot: dict[tuple[int, ...], Scalar] = {}
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapq.heapify(heap)
    while heap:
        _, _, e = heapq.heappop(heap)
        coeff = rem.pop(e, None)
        if coeff is None:
            continue
        diff = tuple(x - y for x, y in zip(e, lt_e))
        if any(x < 0 for x in diff):
            rem[e] = coeff
            raise ExactDivisionError(
                "exact division failed", MultiPoly._raw(a.vars, rem)
            )
        qc = _div(coeff, lt_c)
        quot[diff] = qc
        for de, dc in d_items:
            te = tuple(x + y for x, y in zip(diff, de))
            old = rem.get(te)
            if old is None:
                rem[te] = -qc * dc
                heapq.heappush(heap, (-sum(te), tuple(-x for x in te), te))
            else:
                new = old - qc * dc
                if new:
                    rem[te] = new
                else:
                    del rem[te]
    return MultiPoly._raw(a.vars, quot)


def order_at_zero(p: MultiPoly, name: str) -> int:
    """Least exponent of `name` over the terms of `p` (its vanishing order at 0
    when the other variables are generic)."""
    if p.is_zero():
        raise ExactAlgError("order undefined")
    if name not in p.vars:
        return 0
    i = p.vars.index(name)
    return min(e[i] for e in p.terms)


def det_bareiss(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square polynomial matrix, Bareiss fraction-free style.

    Every interior division is exact (a Sylvester-minor identity), so entries
    stay polynomials throughout.  Row pivoting with sign tracking handles zero
    pivots; a fully zero pivot column short-circuits to zero.
    """
    n = len(rows)
    if n == 0:
        return MultiPoly.one()
    if any(len(r) != n for r in rows):
        raise ExactAlgError("matrix is not square")
    names: set[str] = set()
    for r in rows:
        for p in r:
            names.update(p.vars)
    universe = tuple(sorted(names, key=_natural_key))
    m = [[p.embed(universe) for p in r] for r in rows]
    sign = 1
    prev = MultiPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero()
        pivot = m[k][k]
        divide = not (prev.is_constant() and prev.constant_value() == 1)
        for i in range(k + 1, n):
            lower = m[i][k]
            row_i = m[i]
            row_k = m[k]
            if lower.is_zero():
                for j in range(k + 1, n):
                    entry = pivot * row_i[j]
                    row_i[j] = div_exact(entry, prev) if divide else entry
            else:
                for j in range(k + 1, n):
                    entry = pivot * row_i[j] - lower * row_k[j]
                    row_i[j] = div_exact(entry, prev) if divide else entry
            row_i[k] = MultiPoly.zero()
        prev = pivot
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


class UniPoly:
    """Dense univariate layer over MultiPoly coefficients.

    `coeffs[k]` multiplies `var**k`; the top coefficient is nonzero except for
    the zero polynomial, which has an empty coefficient tuple.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[Union[MultiPoly, Scalar]]):
        normalized = [
            c if isinstance(c, MultiPoly) else MultiPoly.const(c) for c in coeffs
        ]
        while normalized and normalized[-1].is_zero():
            normalized.pop()
        for c in normalized:
            if var in c.vars:
                raise ExactAlgError(
                    f"coefficient of {var!r} polynomial mentions {var!r}"
                )
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def from_multipoly(cls, p: MultiPoly, var: str) -> "UniPoly":
        """Collect a MultiPoly by powers of `var`."""
        if var not in p.vars:
            return cls(var, [p])
        i = p.vars.index(var)
        rest = p.vars[:i] + p.vars[i + 1 :]
        buckets: dict[int, dict[tuple[int, ...], Scalar]] = {}
        for exps, coeff in p.terms.items():
            e = exps[i]
            key = exps[:i] + exps[i + 1 :]
            buckets.setdefault(e, {})[key] = coeff
        top = max(buckets) if buckets else -1
        coeffs = [
            MultiPoly._raw(rest, buckets[e]) if e in buckets else MultiPoly.zero()
            for e in range(top + 1)
        ]
        return cls(var, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading_coefficient(self) -> MultiPoly:
        if not self.coeffs:
            raise ExactAlgError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int) -> MultiPoly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return MultiPoly.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and list(self.coeffs) == list(other.coeffs)

    __hash__ = None

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._require_same_var(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.var, [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._require_same_var(other)
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction, MultiPoly)):
            return UniPoly(self.var, [c * other for c in self.coeffs])
        self._require_same_var(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.var, [])
        out = [MultiPoly.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly(
            self.var, [c * k for k, c in enumerate(self.coeffs)][1:]
        )

    def substitute_main(self, value: Union[MultiPoly, Scalar]) -> MultiPoly:
        """Evaluate at `var = value` (Horner), producing a MultiPoly."""
        if not isinstance(value, MultiPoly):
            value = MultiPoly.const(value)
        acc = MultiPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def _require_same_var(self, other: "UniPoly") -> None:
        if not isinstance(other, UniPoly) or other.var != self.var:
            raise ExactAlgError("univariate operands must share the main variable")

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coefficient(e)
            if c.is_zero():
                continue
            if e == 0:
                parts.append(f"({c})")
            else:
                head = f"{self.var}^{e}" if e > 1 else self.var
                parts.append(head if c == 1 else f"({c})*{head}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self!s})"


def _sylvester(f: UniPoly, g: UniPoly) -> list[list[MultiPoly]]:
    m, k = f.degree, g.degree
    size = m + k
    rows = []
    fdesc = [f.coefficient(m - i) for i in range(m + 1)]
    gdesc = [g.coefficient(k - i) for i in range(k + 1)]
    for shift in range(k):
        row = [MultiPoly.zero()] * size
        row[shift : shift + m + 1] = fdesc
        rows.append(row)
    for shift in range(m):
        row = [MultiPoly.zero()] * size
        row[shift : shift + k + 1] = gdesc
        rows.append(row)
    return rows


def resultant(f: UniPoly, g: UniPoly) -> MultiPoly:
    """Sylvester resultant of `f` and `g` in their shared main variable."""
    if not isinstance(f, UniPoly) or not isinstance(g, UniPoly) or f.var != g.var:
        raise ExactAlgError("resultant needs two univariate polynomials in one variable")
    if f.is_zero() or g.is_zero():
        if max(f.degree, g.degree) < 1:
            raise ExactAlgError("resultant undefined for two constants")
        return MultiPoly.zero()
    if f.degree < 1 and g.degree < 1:
        raise ExactAlgError("resultant undefined for two constants")
    return det_bareiss(_sylvester(f, g))


def discriminant(f: UniPoly) -> MultiPoly:
    """(-1)^(d(d-1)/2) * Res(f, f') for monic f of degree d >= 2."""
    if f.degree < 2:
        raise ExactAlgError("discriminant needs degree at least 2")
    if not f.is_monic():
        raise ExactAlgError("discriminant requires monic input")
    d = f.degree
    res = resultant(f, f.derivative())
    return res if (d * (d - 1) // 2) % 2 == 0 else -res


class RatFunc:
    """Quotient of two MultiPoly, normalized so the denominator's graded-lex
    leading coefficient is 1.  Equality is by cross-multiplication; no GCD
    cancellation is attempted."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[MultiPoly, Scalar], den: Union[MultiPoly, Scalar] = 1):
        if not isinstance(num, MultiPoly):
            num = MultiPoly.const(num)
        if not isinstance(den, MultiPoly):
            den = MultiPoly.const(den)
        if den.is_zero():
            raise ExactAlgError("zero denominator")
        lead = den.leading_coefficient()
        if lead != 1:
            inv = _div(1, lead)
            num = num * inv
            den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_poly(cls, p: Union[MultiPoly, Scalar]) -> "RatFunc":
        return cls(p, 1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other) -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other) -> bool:
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        bottom = self.den.evaluate(point)
        if not bottom:
            raise ExactAlgError("denominator vanishes at the evaluation point")
        return Fraction(self.num.evaluate(point)) / bottom

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self!s})"


def _coerce_ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction, MultiPoly)):
        return RatFunc(value, 1)
    return NotImplemented


def ratfunc_equal(a: RatFunc, b: RatFunc) -> bool:
    """Cross-multiplication equality test for rational functions."""
    return _coerce_ratfunc(a) == _coerce_ratfunc(b)


def poly_to_json(p: MultiPoly) -> dict:
    """Canonical JSON form: {"vars": [...], "terms": [[num, den, e1, ...], ...]}.

    Terms are emitted in descending graded-lex order, so serialization is
    deterministic and round-trips bit-exactly through poly_from_json.
    """
    return {
        "vars": list(p.vars),
        "terms": [
            [c.numerator, c.denominator, *exps] for exps, c in p.sorted_terms()
        ],
    }


def poly_from_json(data: Mapping) -> MultiPoly:
    try:
        variables = data["vars"]
        raw_terms = list(data["terms"])
    except (KeyError, TypeError) as exc:
        raise ExactAlgError("polynomial JSON needs 'vars' and 'terms'") from exc
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ExactAlgError("polynomial JSON 'vars' must be a list of names")
    width = len(variables)
    terms: dict[tuple[int, ...], Scalar] = {}
    for entry in raw_terms:
        if not isinstance(entry, list) or len(entry) != width + 2:
            raise ExactAlgError("polynomial JSON term has wrong arity")
        num, den, *exps = entry
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in entry):
            raise ExactAlgError("polynomial JSON terms must be integers")
        if den == 0:
            raise ExactAlgError("polynomial JSON term has a zero denominator")
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + _div(num, den)
    return MultiPoly(tuple(variables), terms)
