"""Tower specifications and iterated wreath products acting on tree leaves.

A tower lists its levels top-first: in the text form "A5;C3;C2;C2" the
first token is the group permuting the n_1 subtrees below the root and
the last token acts just above the leaves.  (As an abstract product this
is the iterated wreath product with the leftmost token outermost.)

Leaves are addressed by tuples (a_1, .., a_k) with 1 <= a_i <= n_i and
enumerated lexicographically, so vertex v at level i owns a contiguous
block of leaves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .permcore import (
    ConsistencyError,
    ParseError,
    PermGroup,
    Permutation,
    bsgs_build,
    format_cycles,
)


class TrivialLevelError(ValueError):
    """A tower level is the trivial group (C1, S1, A1 or A2)."""


_GROUP_RE = re.compile(r"^([ASC])([0-9]+)$")

_MIN_N = {"A": 3, "S": 2, "C": 2}


@dataclass(frozen=True)
class GroupSpec:
    """One tower level: Alt(n), Sym(n) or Cyc(n) in its natural action."""

    kind: str  # "A" | "S" | "C"
    n: int

    def __post_init__(self):
        if self.kind not in _MIN_N:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.n < _MIN_N[self.kind]:
            raise TrivialLevelError(
                f"{self.kind}{self.n} is trivial; levels must be nontrivial groups")

    def normalized(self) -> "GroupSpec":
        """Rewrite A3 as C3 and S2 as C2; other specs are unchanged."""
        if self.kind == "A" and self.n == 3:
            return GroupSpec("C", 3)
        if self.kind == "S" and self.n == 2:
            return GroupSpec("C", 2)
        return self

    @property
    def degree(self) -> int:
        return self.n

    def order(self) -> int:
        if self.kind == "A":
            return math.factorial(self.n) // 2
        if self.kind == "S":
            return math.factorial(self.n)
        return self.n

    def is_cyclic(self) -> bool:
        return self.normalized().kind == "C"

    def token(self) -> str:
        return f"{self.kind}{self.n}"


def parse_group(token: str) -> GroupSpec:
    m = _GROUP_RE.match(token)
    if not m:
        raise ParseError(f"bad group token {token!r}; expected A<n>, S<n> or C<n>")
    return GroupSpec(m.group(1), int(m.group(2)))


@dataclass(frozen=True)
class TowerSpec:
    """An ordered tuple of levels, top-first, normalized on construction."""

    levels: tuple[GroupSpec, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a tower needs at least one level")
        object.__setattr__(self, "levels", tuple(g.normalized() for g in self.levels))

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(g.n for g in self.levels)

    def leaf_count(self) -> int:
        return math.prod(self.degrees)

    def strides(self) -> tuple[int, ...]:
        """Block size owned by one vertex of each level 1..k."""
        out = []
        s = self.leaf_count()
        for n in self.degrees:
            s //= n
            out.append(s)
        return tuple(out)

    def order(self) -> int:
        """The exact group order: prod_i |G_i| ^ (n_1 .. n_{i-1})."""
        total = 1
        copies = 1
        for g in self.levels:
            total *= g.order() ** copies
            copies *= g.n
        return total

    def sub_tower(self, from_level: int) -> "TowerSpec":
        """Levels from_level..k (1-based); from_level = k+1 is invalid."""
        if not 1 <= from_level <= self.k:
            raise ValueError("from_level out of range")
        return TowerSpec(self.levels[from_level - 1:])

    def text(self) -> str:
        return ";".join(g.token() for g in self.levels)


def parse_tower(text: str) -> TowerSpec:
    if not re.match(r"^[ASC0-9;]+$", text):
        raise ParseError(f"bad tower text {text!r}")
    parts = text.split(";")
    if any(not p for p in parts):
        raise ParseError(f"empty level in tower text {text!r}")
    return TowerSpec(tuple(parse_group(p) for p in parts))


def leaf_index(t: TowerSpec, address: tuple[int, ...]) -> int:
    """0-based leaf number of the 1-based address (a_1, .., a_k)."""
    if len(address) != t.k:
        raise ValueError("address length must equal tower height")
    idx = 0
    for a, n, stride in zip(address, t.degrees, t.strides()):
        if not 1 <= a <= n:
            raise ValueError(f"address entry {a} out of range 1..{n}")
        idx += (a - 1) * stride
    return idx


# ---------------------------------------------------------------------------
# standard generators


@lru_cache(maxsize=None)
def _standard_generators(kind: str, n: int) -> tuple[Permutation, ...]:
    if kind == "C":
        gens = (Permutation(tuple(range(1, n)) + (0,)),)
        expected = n
    elif kind == "S":
        swap = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        gens = (Permutation(swap), Permutation(cycle))
        expected = math.factorial(n)
    else:
        three = [1, 2, 0] + list(range(3, n))
        if n % 2:
            big = list(range(1, n)) + [0]  # (1 2 .. n), even for odd n
        else:
            big = [0] + list(range(2, n)) + [1]  # (2 3 .. n)
        gens = (Permutation(three), Permutation(big))
        expected = math.factorial(n) // 2
    chain = bsgs_build(PermGroup(n, gens))
    if chain.order() != expected:
        raise ConsistencyError(f"standard generators of {kind}{n} have wrong order")
    return gens


def standard_generators(spec: GroupSpec) -> list[Permutation]:
    """Canonical generators in the natural action; the generated order is
    checked against n, n! or n!/2 once per spec.

    Requires a normalized spec (A3 and S2 must arrive as C3 and C2).
    """
    if spec != spec.normalized():
        raise ValueError(f"{spec.token()} is unnormalized; normalize to "
                         f"{spec.normalized().token()} first")
    return list(_standard_generators(spec.kind, spec.n))


# ---------------------------------------------------------------------------
# tree automorphisms


@dataclass(frozen=True)
class TreeAutomorphism:
    """A leaf permutation that belongs to a tower's wreath product."""

    tower: TowerSpec
    perm: Permutation

    def __mul__(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        if other.tower != self.tower:
            raise ValueError("cannot compose automorphisms of different towers")
        return TreeAutomorphism(self.tower, self.perm * other.perm)

    def __pow__(self, k: int) -> "TreeAutomorphism":
        return TreeAutomorphism(self.tower, self.perm ** k)

    def order(self) -> int:
        return self.perm.order()

    def preserves_blocks(self) -> bool:
        """True when every level-block maps onto a block of the same level."""
        try:
            for level in range(1, self.tower.k):
                self.project(level)
        except ValueError:
            return False
        return True

    def project(self, level: int) -> Permutation:
        """Induced permutation of the level's vertices (0-based indices)."""
        if not 1 <= level <= self.tower.k:
            raise ValueError("level out of range")
        stride = self.tower.strides()[level - 1]
        count = self.tower.leaf_count() // stride
        images = []
        for v in range(count):
            start = v * stride
            target = self.perm(start) // stride
            if any(self.perm(start + off) // stride != target for off in range(1, stride)):
                raise ValueError("permutation does not preserve level blocks")
            images.append(target)
        return Permutation(images)

    def to_json(self) -> dict:
        return {"degree": self.perm.degree, "cycles": format_cycles(self.perm)}


def apply_at_vertex(t: TowerSpec, vertex: tuple[int, ...], sigma: Permutation) -> TreeAutomorphism:
    """Permute the child subtrees of `vertex` rigidly by sigma.

    `vertex` is a 1-based address of length i-1 (the empty tuple is the
    root); sigma must have degree n_i.  Leaves outside the vertex's
    subtree are fixed.
    """
    i = len(vertex) + 1
    if i > t.k:
        raise ValueError("vertex address too long for this tower")
    n_i = t.degrees[i - 1]
    if sigma.degree != n_i:
        raise ValueError(f"sigma degree {sigma.degree} != level degree {n_i}")
    strides = t.strides()
    block = strides[i - 1]
    start = 0
    for a, n, stride in zip(vertex, t.degrees, strides):
        if not 1 <= a <= n:
            raise ValueError(f"address entry {a} out of range 1..{n}")
        start += (a - 1) * stride
    images = list(range(t.leaf_count()))
    for child in range(n_i):
        src = start + child * block
        dst = start + sigma(child) * block
        for off in range(block):
            images[src + off] = dst + off
    return TreeAutomorphism(t, Permutation(images))


def tower_generators(t: TowerSpec) -> list[TreeAutomorphism]:
    """One copy of each level's standard generators, applied at the
    leftmost vertex (1, .., 1) of the level above; conjugation under the
    transitive upper levels reaches every other copy."""
    gens = []
    for i, spec in enumerate(t.levels, start=1):
        vertex = (1,) * (i - 1)
        for s in standard_generators(spec):
            gens.append(apply_at_vertex(t, vertex, s))
    return gens


def tower_group(t: TowerSpec) -> PermGroup:
    """The wreath product as a leaf permutation group.

    The chain order is compared against the closed-form product, so the
    construction is certified rather than assumed.
    """
    g = PermGroup(t.leaf_count(), [a.perm for a in tower_generators(t)])
    if g.order() != t.order():
        raise ConsistencyError(
            f"tower group order {g.order()} != expected {t.order()}")
    return g


# ---------------------------------------------------------------------------
# the two-generator pair for A_n;C3;C2;C2


def example_tower(n: int) -> TowerSpec:
    return TowerSpec((GroupSpec("A", n), GroupSpec("C", 3),
                      GroupSpec("C", 2), GroupSpec("C", 2)))


def example_generators(n: int) -> tuple[TreeAutomorphism, TreeAutomorphism]:
    """The explicit pair (x, y) generating the A_n;C3;C2;C2 tower, n odd >= 5.

    x applies (1 2) at vertex (1,1), then (1 2 3) at vertex (5,), then
    (1 2)(3 4) at the root; y applies (1 2) at vertex (1,1,1) and the
    (n-2)-cycle (2 4 5 .. n) at the root.  Deeper components act first.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("the pair is defined for odd n >= 5")
    t = example_tower(n)
    swap2 = Permutation((1, 0))
    x = (apply_at_vertex(t, (1, 1), swap2)
         * apply_at_vertex(t, (5,), Permutation((1, 2, 0)))
         * apply_at_vertex(t, (), Permutation((1, 0, 3, 2) + tuple(range(4, n)))))
    root_cycle = [0] * n  # (2 4 5 .. n): fixes 1 and 3, 1-based
    root_cycle[1] = 3
    root_cycle[2] = 2
    for j in range(3, n - 1):
        root_cycle[j] = j + 1
    root_cycle[n - 1] = 1
    y = (apply_at_vertex(t, (1, 1, 1), swap2)
         * apply_at_vertex(t, (), Permutation(root_cycle)))
    return x, y
