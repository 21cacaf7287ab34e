"""Sheet permutations of the 2n-fold cover and collision combinatorics.

Sheets are labelled 1..2n and paired by the involution s = (1 2)(3 4)...(2n-1 2n)
coming from v -> -v.  Local monodromy at a simple zero of Q_2n is a pair
transposition; at a zero of Delta it is (a c)(sa sc) gluing two distinct pairs.
Merging two nearby branch points multiplies their monodromies; the product's
cycle data classifies the degeneration.  Everything here is finite and exact:
products are composed left to right, so (p * q)(x) = q(p(x)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .exactalg import ExactAlgError

__all__ = [
    "Permutation",
    "LocalMonodromy",
    "MergeVerdict",
    "MergeCensus",
    "ClassInfo",
    "CLASS_TABLE",
    "GlobalMonodromyReport",
    "census_table",
    "centralizer_generators",
    "centralizer_order",
    "classify_merge",
    "closure_size",
    "enumerate_all_merges",
    "enumerate_local_monodromies",
    "realizable_labels",
    "sheet_involution",
    "sigma_partner",
    "validate_global_monodromy",
]


class Permutation:
    """Permutation of {1..n}; stored 0-based, printed in cycle notation."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ExactAlgError("images are not a bijection of 0..n-1")
        object.__setattr__(self, "images", imgs)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Disjoint cycles in 1-based labels."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for a in cyc:
                if not 1 <= a <= n:
                    raise ExactAlgError(f"label {a} outside 1..{n}")
                if a in seen:
                    raise ExactAlgError("cycles are not disjoint")
                seen.add(a)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b - 1
        return cls(images)

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        return cls.from_cycles(n, [(a, b)])

    @classmethod
    def parse(cls, n: int, text: str) -> "Permutation":
        """Inverse of str(): '(1 3)(2 4)' or '()' for the identity."""
        body = text.strip()
        if body == "()":
            return cls.identity(n)
        if not re.fullmatch(r"(\(\d+(?: \d+)*\))+", body):
            raise ExactAlgError(f"cannot parse permutation {text!r}")
        cycles = [
            tuple(int(tok) for tok in grp.split())
            for grp in re.findall(r"\(([^()]*)\)", body)
        ]
        return cls.from_cycles(n, cycles)

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """1-based application."""
        return self.images[i - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ExactAlgError("degree mismatch")
        return Permutation(
            tuple(other.images[self.images[i]] for i in range(self.degree))
        )

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Relabelling by g: sends g(i) -> g(self(i))."""
        return g.inverse() * self * g

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images))

    def is_involution(self) -> bool:
        return not self.is_identity() and (self * self).is_identity()

    def commutes_with(self, other: "Permutation") -> bool:
        return self * other == other * self

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, 1-based, min element first, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(a + 1 for a in cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Lengths of nontrivial cycles, descending."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(a) for a in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation.parse({self.degree}, {str(self)!r})"


def sigma_partner(i: int) -> int:
    """The other sheet of i's pair: 1<->2, 3<->4, ..."""
    return i + 1 if i % 2 else i - 1


def sheet_involution(n: int) -> Permutation:
    """s = (1 2)(3 4)...(2n-1 2n), the v -> -v deck move."""
    if n < 1:
        raise ExactAlgError("n must be at least 1")
    return Permutation.from_cycles(2 * n, [(2 * k - 1, 2 * k) for k in range(1, n + 1)])


def _pair_of(i: int) -> int:
    """1-based pair index of sheet i."""
    return (i + 1) // 2


def _sigma_invariant_cycle_count(p: Permutation, sigma: Permutation) -> int:
    """Cycles of length >= 2 whose support sigma maps to itself."""
    count = 0
    for c in p.cycles():
        if frozenset(sigma(a) for a in c) == frozenset(c):
            count += 1
    return count


@dataclass(frozen=True)
class LocalMonodromy:
    """Monodromy at one branch point: kind 'Qzero' or 'DeltaZero'."""

    n: int
    kind: str
    perm: Permutation

    def __post_init__(self):
        n, p = self.n, self.perm
        if p.degree != 2 * n:
            raise ExactAlgError("permutation degree must be 2n")
        sigma = sheet_involution(n)
        if not p.commutes_with(sigma):
            raise ExactAlgError("local monodromy must commute with the involution")
        cycs = p.cycles()
        if self.kind == "Qzero":
            if p.cycle_type() != (2,) or _pair_of(cycs[0][0]) != _pair_of(cycs[0][1]):
                raise ExactAlgError(
                    "a simple zero of Q_2n transposes the two sheets of one pair"
                )
        elif self.kind == "DeltaZero":
            if p.cycle_type() != (2, 2):
                raise ExactAlgError(
                    "a zero of Delta glues two pairs by a (2,2) permutation"
                )
            for c in cycs:
                if _pair_of(c[0]) == _pair_of(c[1]):
                    raise ExactAlgError(
                        "a zero of Delta must not transpose within a pair"
                    )
            if frozenset(sigma(a) for a in cycs[0]) != frozenset(cycs[1]):
                raise ExactAlgError(
                    "the involution must exchange the two glued transpositions"
                )
        else:
            raise ExactAlgError(f"unknown local monodromy kind {self.kind!r}")

    @property
    def pairs(self) -> frozenset[int]:
        """Indices of the sheet pairs the monodromy touches."""
        return frozenset(_pair_of(a) for c in self.perm.cycles() for a in c)

    @classmethod
    def qzero(cls, n: int, k: int) -> "LocalMonodromy":
        """Transposition of pair k, 1 <= k <= n."""
        if not 1 <= k <= n:
            raise ExactAlgError(f"pair index {k} outside 1..{n}")
        return cls(n, "Qzero", Permutation.from_cycles(2 * n, [(2 * k - 1, 2 * k)]))

    @classmethod
    def deltazero(cls, n: int, i: int, j: int, twist: bool = False) -> "LocalMonodromy":
        """Glue pairs i < j: (a c)(sa sc) with c = 2j-1, twisted c = 2j."""
        if not 1 <= i < j <= n:
            raise ExactAlgError("need pair indices 1 <= i < j <= n")
        a = 2 * i - 1
        c = 2 * j if twist else 2 * j - 1
        perm = Permutation.from_cycles(
            2 * n, [(a, c), (sigma_partner(a), sigma_partner(c))]
        )
        return cls(n, "DeltaZero", perm)


def enumerate_local_monodromies(n: int) -> list[LocalMonodromy]:
    """All n pair transpositions, then all n(n-1) pair gluings."""
    out = [LocalMonodromy.qzero(n, k) for k in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(LocalMonodromy.deltazero(n, i, j, twist=False))
            out.append(LocalMonodromy.deltazero(n, i, j, twist=True))
    return out


# ---------------------------------------------------------------------------
# Merge classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassInfo:
    """Branching data of one degeneration class at the merged point."""

    label: str
    min_n: int
    profile: tuple[int, ...]  # nontrivial cycle lengths of the merged point
    nodes: int
    genus_delta: int
    rh_consistent: bool  # False when the profile substitution has odd parity


CLASS_TABLE: Mapping[str, ClassInfo] = {
    "b": ClassInfo("b", 1, (2,), 1, 0, False),
    "ac": ClassInfo("ac", 2, (4,), 0, 0, True),
    "bm": ClassInfo("bm", 3, (2, 2, 2), 0, 0, True),
    "bb": ClassInfo("bb", 2, (2, 2), 2, -1, True),
    "cc": ClassInfo("cc", 3, (3, 3), 0, 0, True),
    "mm": ClassInfo("mm", 4, (2, 2, 2, 2), 0, 0, True),
}

_BRANCH_WEIGHT = {"Qzero": 1, "DeltaZero": 2}  # sum(b_p - 1) of one generic point


def realizable_labels(n: int) -> tuple[str, ...]:
    return tuple(lab for lab, info in CLASS_TABLE.items() if n >= info.min_n)


@dataclass(frozen=True)
class MergeVerdict:
    """Outcome of colliding two branch points."""

    n: int
    kinds: tuple[str, str]
    label: Optional[str]  # None unless admissible
    status: str  # 'admissible' | 'excluded' | 'inadmissible'
    product: Permutation
    profile: tuple[int, ...]
    nodes: int
    genus_delta: Optional[int]  # None when Riemann-Hurwitz cannot close
    rh_consistent: Optional[bool]  # parity of the profile substitution
    fiber_size: int
    sigma_invariant_cycles: int


def classify_merge(m1: LocalMonodromy, m2: LocalMonodromy) -> MergeVerdict:
    """Collide two branch points; the verdict is decided by their pair data.

    Pair transpositions merge only with themselves (label b).  A transposition
    meeting a gluing gives a 4-cycle when they share the pair (ac) and a
    (2,2,2) point otherwise (bm).  Two gluings give bb / cc / mm according to
    whether their pair sets agree, overlap, or are disjoint - except that the
    two distinct gluings of one pair set produce two involution-invariant
    2-cycles, which no admissible degeneration carries (excluded).
    """
    if m1.n != m2.n:
        raise ExactAlgError("degree mismatch")
    n = m1.n
    sigma = sheet_involution(n)
    product = m1.perm * m2.perm
    kinds = (m1.kind, m2.kind)
    invariant = _sigma_invariant_cycle_count(product, sigma)

    label: Optional[str] = None
    status = "inadmissible"
    if kinds == ("Qzero", "Qzero"):
        if m1.perm == m2.perm:
            label, status = "b", "admissible"
    elif "Qzero" in kinds and "DeltaZero" in kinds:
        q, d = (m1, m2) if m1.kind == "Qzero" else (m2, m1)
        label = "ac" if q.pairs <= d.pairs else "bm"
        status = "admissible"
    else:  # two Delta zeros
        if m1.pairs == m2.pairs:
            if m1.perm == m2.perm:
                label, status = "bb", "admissible"
            else:
                status = "excluded"
        elif m1.pairs & m2.pairs:
            label, status = "cc", "admissible"
        else:
            label, status = "mm", "admissible"

    if status == "admissible" and invariant > 1:
        # the table and the invariant-cycle filter must agree
        raise ExactAlgError("classification table violates the admissibility filter")
    if status != "admissible" and invariant <= 1:
        raise ExactAlgError("admissibility filter contradicts the exclusion table")

    if label is not None:
        info = CLASS_TABLE[label]
        profile = info.profile
        nodes = info.nodes
        # merged branching minus the two generic contributions, halved
        delta_branch = sum(b - 1 for b in profile) - (
            _BRANCH_WEIGHT[kinds[0]] + _BRANCH_WEIGHT[kinds[1]]
        )
        genus_delta: Optional[int] = (
            delta_branch // 2 if delta_branch % 2 == 0 else None
        )
        if (genus_delta is not None) != info.rh_consistent:
            raise ExactAlgError("genus bookkeeping disagrees with the class table")
        if genus_delta is None:
            genus_delta_out = info.genus_delta  # recorded; parity flagged below
        else:
            if genus_delta != info.genus_delta:
                raise ExactAlgError("genus bookkeeping disagrees with the class table")
            genus_delta_out = genus_delta
        fiber = 2 * n - sum(b - 1 for b in profile)
    else:
        profile = product.cycle_type()
        nodes = 0
        genus_delta_out = None
        fiber = 2 * n - sum(b - 1 for b in profile)

    return MergeVerdict(
        n=n,
        kinds=kinds,
        label=label,
        status=status,
        product=product,
        profile=profile,
        nodes=nodes,
        genus_delta=genus_delta_out if label is not None else None,
        rh_consistent=CLASS_TABLE[label].rh_consistent if label is not None else None,
        fiber_size=fiber,
        sigma_invariant_cycles=invariant,
    )


# ---------------------------------------------------------------------------
# Centralizer action and the merge census
# ---------------------------------------------------------------------------


def centralizer_order(n: int) -> int:
    """The centralizer of the sheet involution has order 2^n n!."""
    out = 2**n
    for k in range(2, n + 1):
        out *= k
    return out


def centralizer_generators(n: int) -> list[Permutation]:
    """Pair swaps (2k-1 2k+1)(2k 2k+2) plus the first pair flip (1 2)."""
    gens = [Permutation.from_cycles(2 * n, [(1, 2)])]
    for k in range(1, n):
        gens.append(
            Permutation.from_cycles(
                2 * n, [(2 * k - 1, 2 * k + 1), (2 * k, 2 * k + 2)]
            )
        )
    return gens


def closure_size(gens: Sequence[Permutation], n: int) -> int:
    """Order of the group the permutations `gens` of 2n sheets generate."""
    seen = {Permutation.identity(2 * n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


@dataclass(frozen=True)
class MergeCensus:
    """Every ordered collision of two local monodromies at rank n, classified."""

    n: int
    ordered_counts: Mapping[str, int]  # labels plus 'excluded', 'inadmissible'
    excluded_ordered: int
    orbit_counts: Mapping[str, int]  # unordered pairs up to relabelling
    realizable: tuple[str, ...]
    fiber_sizes: Mapping[str, int]

    @property
    def one_orbit_per_label(self) -> bool:
        return all(self.orbit_counts.get(lab, 0) == 1 for lab in self.realizable) and set(
            self.orbit_counts
        ) == set(self.realizable)


def enumerate_all_merges(n: int) -> MergeCensus:
    """Classify all collisions and count relabelling orbits.

    Orbits are of unordered pairs {m1, m2} under simultaneous conjugation by
    the centralizer of the involution; each realizable class forms exactly one
    orbit.  The excluded count is of ordered pairs, n(n-1) of them.
    """
    locals_ = enumerate_local_monodromies(n)
    ordered_counts: dict[str, int] = {}
    fiber_sizes: dict[str, int] = {}
    for m1 in locals_:
        for m2 in locals_:
            v = classify_merge(m1, m2)
            key = v.label if v.label is not None else v.status
            ordered_counts[key] = ordered_counts.get(key, 0) + 1
            if v.label is not None:
                prev = fiber_sizes.setdefault(v.label, v.fiber_size)
                if prev != v.fiber_size:
                    raise ExactAlgError("fiber size is not constant on a class")

    gens = centralizer_generators(n)

    def canon(p1: Permutation, p2: Permutation):
        return tuple(sorted([p1.images, p2.images]))

    unordered = {}
    for i, m1 in enumerate(locals_):
        for m2 in locals_[i:]:
            v = classify_merge(m1, m2)
            if v.label is not None:
                unordered[canon(m1.perm, m2.perm)] = (m1.perm, m2.perm, v.label)

    orbit_counts: dict[str, int] = {}
    visited = set()
    for key, (p1, p2, label) in unordered.items():
        if key in visited:
            continue
        orbit_counts[label] = orbit_counts.get(label, 0) + 1
        frontier = [(p1, p2)]
        visited.add(key)
        while frontier:
            nxt = []
            for a, b in frontier:
                for g in gens:
                    ka, kb = a.conjugate(g), b.conjugate(g)
                    k = canon(ka, kb)
                    if k not in visited:
                        if k not in unordered:
                            raise ExactAlgError(
                                "conjugation left the admissible-merge set"
                            )
                        visited.add(k)
                        nxt.append((ka, kb))
            frontier = nxt
    if visited != set(unordered):
        raise ExactAlgError("orbit enumeration missed admissible merges")

    return MergeCensus(
        n=n,
        ordered_counts=dict(sorted(ordered_counts.items())),
        excluded_ordered=ordered_counts.get("excluded", 0),
        orbit_counts=dict(sorted(orbit_counts.items())),
        realizable=realizable_labels(n),
        fiber_sizes=dict(sorted(fiber_sizes.items())),
    )


def census_table(census: MergeCensus) -> dict:
    """JSON-ready orbit table, e.g. {"n": 3, "classes": {"b": 1, ...},
    "excluded_pairs": 6}; class keys follow the fixed label order and
    excluded_pairs counts ordered pairs."""
    classes = {
        label: census.orbit_counts[label]
        for label in CLASS_TABLE
        if label in census.orbit_counts
    }
    return {"n": census.n, "classes": classes, "excluded_pairs": census.excluded_ordered}


# ---------------------------------------------------------------------------
# Global monodromy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalMonodromyReport:
    n: int
    g: int
    product_is_identity: bool
    transitive: bool
    commutes_with_sigma: bool
    counts_match: Optional[bool]  # None when the generic-count check is off

    @property
    def ok(self) -> bool:
        return (
            self.product_is_identity
            and self.transitive
            and self.commutes_with_sigma
            and self.counts_match is not False
        )


def validate_global_monodromy(
    n: int,
    g: int,
    qzeros: Sequence[Permutation],
    deltazeros: Sequence[Permutation],
    handles: Sequence[tuple[Permutation, Permutation]] = (),
    check_counts: bool = True,
) -> GlobalMonodromyReport:
    """Check the surface-group relation prod [a_i, b_i] prod m_j = 1.

    Branch monodromies are validated through LocalMonodromy (shape and
    involution-equivariance), handles only need to commute with the
    involution.  Transitivity is of the full generated group on the 2n
    sheets.  With check_counts on, the branch counts must match the generic
    cover: 4n(g-1) simple zeros and 4n(n-1)(g-1) pair collisions.
    """
    if g < 2:
        raise ExactAlgError("base genus must be at least 2")
    sigma = sheet_involution(n)
    qs = [LocalMonodromy(n, "Qzero", p) for p in qzeros]
    ds = [LocalMonodromy(n, "DeltaZero", p) for p in deltazeros]
    gens = [p for a, b in handles for p in (a, b)] + list(qzeros) + list(deltazeros)
    sigma_ok = all(p.commutes_with(sigma) for p in gens)

    prod = Permutation.identity(2 * n)
    for a, b in handles:
        prod = prod * (a * b * a.inverse() * b.inverse())
    for m in qs + ds:
        prod = prod * m.perm

    reached = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for p in gens:
                y = p(x)
                if y not in reached:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    transitive = len(reached) == 2 * n

    counts: Optional[bool] = None
    if check_counts:
        counts = len(qs) == 4 * n * (g - 1) and len(ds) == 4 * n * (n - 1) * (g - 1)

    return GlobalMonodromyReport(
        n=n,
        g=g,
        product_is_identity=prod.is_identity(),
        transitive=transitive,
        commutes_with_sigma=sigma_ok,
        counts_match=counts,
    )
