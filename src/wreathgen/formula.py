"""Closed forms for the minimal number of generators of a tower group.

Everything here is symbolic: the abelianization of a tower is a finite
abelian group recorded by its p-ranks, and d(W) for k >= 2 follows from
the top level's type together with those ranks.  The permutation-group
machinery never enters; agreement with it is what the test suite and the
oracle module certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .wreath import GroupSpec, TowerSpec


class CyclicTopError(ValueError):
    """The counting form requires a non-cyclic top level."""


@dataclass(frozen=True)
class AbelianProfile:
    """A finite abelian group summarized by its nonzero p-ranks."""

    ranks: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "ranks", {p: r for p, r in sorted(self.ranks.items()) if r})

    @property
    def d(self) -> int:
        """Minimal generator count: the largest p-rank."""
        return max(self.ranks.values(), default=0)

    def rank(self, p: int) -> int:
        return self.ranks.get(p, 0)

    def to_json(self) -> dict[str, int]:
        return {str(p): r for p, r in self.ranks.items()}


def abelianization(t: TowerSpec, from_level: int = 1) -> AbelianProfile:
    """p-ranks of the abelianization of the sub-tower from the given level.

    (B wr G)^ab = B^ab x G^ab, so each level contributes its own
    abelianization, one Z_p for each p in `GroupSpec.abelian_primes`.
    from_level = k+1 names the trivial group.
    """
    if not 1 <= from_level <= t.k + 1:
        raise ValueError("from_level out of range")
    ranks: dict[int, int] = {}
    for g in t.levels[from_level - 1:]:
        for p in g.abelian_primes:
            ranks[p] = ranks.get(p, 0) + 1
    return AbelianProfile(ranks)


def d_abelian_wreath(a: AbelianProfile, g1: GroupSpec) -> int:
    """d of A wr G_1 for a finite abelian A: d(A) + 1 for a cyclic G_1,
    otherwise max(2, d(A x G_1^ab)), where G_1^ab adds one to the p-rank
    of A at each p in `g1.abelian_primes`."""
    if g1.is_cyclic():
        return a.d + 1
    d = max(2, a.d)
    for p in g1.abelian_primes:
        d = max(d, a.rank(p) + 1)
    return d


_CASES = {"A": "An", "S": "Sn", "C": "Cyclic"}


@dataclass(frozen=True)
class FormulaResult:
    d: int
    case: str  # "A4" | "An" | "Sn" | "Cyclic" | "SingleLevel"
    abelianization: AbelianProfile


def d_tower(t: TowerSpec) -> FormulaResult:
    """Minimal generator count of the tower group, by closed form.

    For k >= 2 the answer is max(2, d(A wr G_1)), where A is the
    abelianization of levels 2..k; the case names the top level's type.
    """
    g1 = t.levels[0]
    if t.k == 1:
        d = 1 if g1.is_cyclic() else 2
        return FormulaResult(d, "SingleLevel", AbelianProfile({}))
    a = abelianization(t, 2)
    case = "A4" if (g1.kind, g1.n) == ("A", 4) else _CASES[g1.kind]
    return FormulaResult(max(2, d_abelian_wreath(a, g1)), case, a)


@dataclass(frozen=True)
class CountingProfile:
    """Level counts entering the counting form and the abelianization."""

    a4: int  # Alt 4 levels
    s: int  # non-abelian symmetric levels
    c: dict[int, int]  # cyclic levels whose order p divides, per prime


def counting_profile(t: TowerSpec) -> CountingProfile:
    """Level counts of the whole tower."""
    a4 = s = 0
    c: dict[int, int] = {}
    for g in t.levels:
        if g.kind == "A" and g.n == 4:
            a4 += 1
        elif g.kind == "S":
            s += 1
        elif g.kind == "C":
            for p in g.abelian_primes:
                c[p] = c.get(p, 0) + 1
    return CountingProfile(a4, s, c)


def d_corollary(t: TowerSpec) -> int:
    """Counting form of d for towers with non-cyclic top, k >= 2:

        max over primes of (2, c_2 + s, c_3 + a_4, c_p).

    The sums are the p-ranks of W^ab, the product of the levels'
    abelianizations (see `abelianization`), so the form is
    max(2, d(W^ab)).  It agrees with `d_tower` because, under a
    non-cyclic top, d(A wr G_1) = max(2, d(A x G_1^ab)) for A the
    abelianization of levels 2..k, and A x G_1^ab is W^ab.
    """
    if t.k < 2:
        raise ValueError("the counting form needs k >= 2")
    if t.levels[0].is_cyclic():
        raise CyclicTopError("the counting form requires a non-cyclic top level")
    return max(2, abelianization(t).d)
