"""Closed forms for the minimal number of generators of a tower group.

Everything here is symbolic: the abelianization of a tower is a finite
abelian group recorded by its p-ranks, and d(W) for k >= 2 follows from
the top level's type together with those ranks.  The permutation-group
machinery never enters; agreement with it is what the test suite and the
oracle module certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .permcore import prime_factorization
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

    def is_trivial(self) -> bool:
        return not self.ranks

    def to_json(self) -> dict[str, int]:
        return {str(p): r for p, r in self.ranks.items()}


def abelianization(t: TowerSpec, from_level: int = 1) -> AbelianProfile:
    """p-ranks of the abelianization of the sub-tower from the given level.

    Each level contributes independently: Alt n (n >= 5) nothing, Alt 4
    one Z_3, Sym n (n >= 3) one Z_2, Cyc n one Z_p per prime p | n; so
    d_p = c_p, plus s for p = 2 and a_4 for p = 3, over those levels.
    from_level = k+1 names the trivial group.
    """
    prof = counting_profile(t, from_level)
    return AbelianProfile(
        {**prof.c, 2: prof.c_p(2) + prof.s, 3: prof.c_p(3) + prof.a4})


def d_abelian_wreath(a: AbelianProfile, g1: GroupSpec) -> int:
    """d of A wr G_1 for a finite abelian A, by the top level's type."""
    g1 = g1.normalized()
    if g1.kind == "A" and g1.n == 4:
        return max(2, a.d, a.rank(3) + 1)
    if g1.kind == "A":
        return max(2, a.d)
    if g1.kind == "S":
        return max(2, a.d, a.rank(2) + 1)
    return a.d + 1


_CASES = {"A": "An", "S": "Sn", "C": "Cyclic"}


@dataclass(frozen=True)
class FormulaResult:
    d: int
    case: str  # "A4" | "An" | "Sn" | "Cyclic" | "SingleLevel"
    abelianization: AbelianProfile

    def to_json(self) -> dict:
        return {"d": self.d, "case": self.case,
                "abelianization": self.abelianization.to_json()}


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

    def c_p(self, p: int) -> int:
        return self.c.get(p, 0)


def counting_profile(t: TowerSpec, from_level: int = 1) -> CountingProfile:
    """Level counts of the sub-tower from the given level; from_level =
    k+1 names the empty sub-tower."""
    if not 1 <= from_level <= t.k + 1:
        raise ValueError("from_level out of range")
    a4 = s = 0
    c: dict[int, int] = {}
    for g in t.levels[from_level - 1:]:
        if g.kind == "A" and g.n == 4:
            a4 += 1
        elif g.kind == "S":
            s += 1
        elif g.kind == "C":
            for p in prime_factorization(g.n):
                c[p] = c.get(p, 0) + 1
    return CountingProfile(a4, s, c)


def d_corollary(t: TowerSpec) -> int:
    """Counting form of d for towers with non-cyclic top, k >= 2:

        max over primes of (2, c_2 + s, c_3 + a_4, c_p).
    """
    if t.k < 2:
        raise ValueError("the counting form needs k >= 2")
    if t.levels[0].is_cyclic():
        raise CyclicTopError("the counting form requires a non-cyclic top level")
    prof = counting_profile(t)
    return max(2, prof.c_p(2) + prof.s, prof.c_p(3) + prof.a4,
               max(prof.c.values(), default=0))
