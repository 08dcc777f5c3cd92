"""Closed forms for the minimal number of generators of a tower group.

Everything here is symbolic: the abelianization of a tower is a finite
abelian group recorded by its p-ranks, and d(W) for k >= 2 follows from
the top level's type together with those ranks.  The permutation-group
machinery never enters; agreement with it is what the test suite and the
oracle module certify.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .wreath import GroupSpec, TowerSpec


class CyclicTopError(ValueError):
    """The counting form requires a non-cyclic top level."""


def abelianization(levels: Iterable[GroupSpec]) -> dict[int, int]:
    """Nonzero p-ranks {p: rank} of the abelianization of the wreath
    product of the given levels; its d is the largest rank.

    (B wr G)^ab = B^ab x G^ab, so each level contributes its own
    abelianization, one Z_p for each p in `GroupSpec.abelian_primes`.
    """
    ranks: dict[int, int] = {}
    for g in levels:
        for p in g.abelian_primes:
            ranks[p] = ranks.get(p, 0) + 1
    return ranks


_CASES = {"A": "An", "S": "Sn"}  # non-cyclic tops


@dataclass(frozen=True)
class FormulaResult:
    d: int
    case: str  # "A4" | "An" | "Sn" | "Cyclic" | "SingleLevel"
    abelianization: dict[int, int]  # of levels 2..k, as `abelianization`


def d_tower(t: TowerSpec) -> FormulaResult:
    """Minimal generator count of the tower group, by closed form.

    For k >= 2 the answer is max(2, d(A wr G_1)), where A is the
    abelianization of levels 2..k; the case names the top level's type.
    d(A wr G_1) is d(A) + 1 for a cyclic G_1, and otherwise
    max(2, d(A x G_1^ab)), where G_1^ab adds one to the p-rank of A at
    each p in `g1.abelian_primes`; A x G_1^ab is W^ab.
    """
    g1 = t.levels[0]
    if t.k == 1:
        return FormulaResult(1 if g1.is_cyclic() else 2, "SingleLevel", {})
    a = abelianization(t.levels[1:])
    d = max(a.values(), default=0)
    if g1.is_cyclic():
        return FormulaResult(max(2, d + 1), "Cyclic", a)
    for p in g1.abelian_primes:
        d = max(d, a.get(p, 0) + 1)
    case = "A4" if (g1.kind, g1.n) == ("A", 4) else _CASES[g1.kind]
    return FormulaResult(max(2, d), case, a)


def counting_profile(t: TowerSpec) -> dict:
    """Level counts of the whole tower: "a4" Alt 4 levels, "s" non-abelian
    symmetric levels, and "c" {p: cyclic levels whose order p divides}."""
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
    return {"a4": a4, "s": s, "c": c}


def d_corollary(t: TowerSpec) -> int:
    """Counting form of d for towers with non-cyclic top, k >= 2:

        max over primes of (2, c_2 + s, c_3 + a_4, c_p).

    The sums are the p-ranks of W^ab, the product of the levels'
    abelianizations (see `abelianization`), so the form is
    max(2, d(W^ab)), which is the value `d_tower` gives a non-cyclic top;
    this returns that value.  `tests/formula_reference.py` writes the
    counting form out by kind, as the independent check of both.
    """
    if t.k < 2:
        raise ValueError("the counting form needs k >= 2")
    if t.levels[0].is_cyclic():
        raise CyclicTopError("the counting form requires a non-cyclic top level")
    return d_tower(t).d
