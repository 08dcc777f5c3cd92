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
from functools import cached_property, lru_cache

from .permcore import (
    BadInput,
    ConsistencyError,
    ParseError,
    PermGroup,
    Permutation,
    bsgs_build,
    format_cycles,
    prime_factorization,
)


class TrivialLevelError(BadInput):
    """A tower level is the trivial group (C1, S1, A1 or A2)."""


_GROUP_RE = re.compile(r"^([ASC])([0-9]+)$")
_TOWER_RE = re.compile(r"^[ASC0-9;]+$")

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
        # A3 and S2 are cyclic, so every spec reads them as C3 and C2:
        # equality, hashing and each kind test see the group, not its name
        if (self.kind, self.n) in (("A", 3), ("S", 2)):
            object.__setattr__(self, "kind", "C")

    @cached_property
    def abelian_primes(self) -> tuple[int, ...]:
        """The primes p, ascending, at which this level's abelianization has
        its one Z_p factor: 3 for Alt 4, 2 for Sym n (n >= 3), each prime
        dividing n for Cyc n, none for Alt n (n >= 5).  Worked out once per
        spec, so a tower reads it from its shared level objects."""
        if self.kind == "C":
            return tuple(prime_factorization(self.n))
        if self.kind == "S":
            return (2,)
        return (3,) if self.n == 4 else ()

    def order(self) -> int:
        if self.kind == "A":
            return math.factorial(self.n) // 2
        if self.kind == "S":
            return math.factorial(self.n)
        return self.n

    def log10_order(self) -> float:
        """log10 of `order()`, from floats, so no factorial is built;
        raises OverflowError for a degree past a float."""
        if self.kind == "C":
            return math.log10(self.n)
        log = math.lgamma(self.n + 1) / math.log(10)
        return log - math.log10(2) if self.kind == "A" else log

    def is_cyclic(self) -> bool:
        return self.kind == "C"

    def token(self) -> str:
        return f"{self.kind}{self.n}"


def parse_group(token: str) -> GroupSpec:
    m = _GROUP_RE.match(token)
    if not m:
        raise ParseError(f"bad group token {token!r}; expected A<n>, S<n> or C<n>")
    kind, digits = m.groups()
    try:
        n = int(digits)
    except ValueError:  # past Python's limit on int-from-string conversion
        raise ParseError(f"degree of group token {kind}<{len(digits)} digits> is past "
                         f"Python's limit on reading an integer") from None
    return GroupSpec(kind, n)


@dataclass(frozen=True)
class TowerSpec:
    """An ordered tuple of levels, top-first."""

    levels: tuple[GroupSpec, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a tower needs at least one level")

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

    def log10_order(self) -> float:
        """log10 of `order()`, sum_i (n_1 .. n_{i-1}) log10 |G_i| in
        floats, so no power is built; inf when a term overflows."""
        total, copies = 0.0, 1
        try:
            for g in self.levels:
                total += copies * g.log10_order()
                copies *= g.n
        except OverflowError:  # a count of copies or a degree past a float
            return math.inf
        return total

    def text(self) -> str:
        return ";".join(g.token() for g in self.levels)


# towers share few distinct level tokens, so each token is parsed once,
# and its level object carries its facts to every tower that names it;
# the bound keeps a run over distinct tokens from growing the cache
# without limit
_level = lru_cache(maxsize=1024)(parse_group)


def parse_tower(text: str) -> TowerSpec:
    if not _TOWER_RE.match(text):
        raise ParseError(f"bad tower text {text!r}")
    parts = text.split(";")
    if "" in parts:
        raise ParseError(f"empty level in tower text {text!r}")
    return TowerSpec(tuple(map(_level, parts)))


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
def standard_generators(spec: GroupSpec) -> tuple[Permutation, ...]:
    """Canonical generators in the natural action; that they generate the
    spec's group is certified once per spec, the cache key."""
    kind, n, claim = spec.kind, spec.n, spec.order()
    if kind == "C":
        gens = (Permutation(tuple(range(1, n)) + (0,)),)
    elif kind == "S":
        swap = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        gens = (Permutation(swap), Permutation(cycle))
    else:
        three = [1, 2, 0] + list(range(3, n))
        if n % 2:
            big = list(range(1, n)) + [0]  # (1 2 .. n), even for odd n
        else:
            big = [0] + list(range(2, n)) + [1]  # (2 3 .. n)
        gens = (Permutation(three), Permutation(big))
    # one generator generates a cyclic group of its own order, which costs
    # no chain: a chain of C_n holds 2n permutations of degree n.  Two lie
    # in the group (A_n's are even) and reach its order in a chain built to it
    order = gens[0].order() if len(gens) == 1 else bsgs_build(PermGroup(n, gens), claim).order()
    if order != claim or kind == "A" and any(s.parity() for s in gens):
        raise ConsistencyError(f"standard generators of {spec.token()} have wrong order")
    return gens


# ---------------------------------------------------------------------------
# tree automorphisms


def apply_at_vertex(t: TowerSpec, vertex: tuple[int, ...], sigma: Permutation) -> Permutation:
    """The leaf permutation that moves the child subtrees of `vertex`
    rigidly by sigma.

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
    block = t.strides()[i - 1]
    start = leaf_index(t, vertex + (1,) * (t.k - len(vertex)))  # first leaf below
    images = list(range(t.leaf_count()))
    for child in range(n_i):
        src = start + child * block
        dst = start + sigma(child) * block
        for off in range(block):
            images[src + off] = dst + off
    return Permutation(images)


def local_actions(t: TowerSpec, w: Permutation) -> list[list[Permutation]]:
    """How w moves the children of each vertex: per level i, top-first,
    the local action sigma_v(w) of degree n_i at each vertex v of depth
    i-1, vertices in leaf order.  Child c of v goes to child sigma_v(w)(c)
    of v's image, so sigma_v(wu) = sigma_v(w) * sigma_{v^w}(u).

    Read off w's leaf images.  Raises ConsistencyError unless w lies in
    the tower group: it keeps every level's blocks of leaves together and
    each local action lies in G_i (even for Alt n, a rotation for Cyc n).
    """
    if w.degree != t.leaf_count():
        raise ConsistencyError(f"a permutation of degree {w.degree} is no element "
                               f"of the {t.leaf_count()}-leaf tower {t.text()}")
    images = [w(x) for x in range(w.degree)]
    out = []
    for i, (spec, stride) in enumerate(zip(t.levels, t.strides()), start=1):
        # the children at level i are the blocks of `stride` leaves; the
        # blocks of level i-1 were checked one pass earlier, so the n_i
        # children of a vertex go to the children of one vertex
        blocks = [y // stride for y in images]
        heads = blocks[::stride]
        if stride > 1 and any(blocks[b * stride:(b + 1) * stride].count(h) != stride
                              for b, h in enumerate(heads)):
            raise ConsistencyError(f"{format_cycles(w)} splits a block of level {i} "
                                   f"of {t.text()}")
        n = spec.n
        moves = [h % n for h in heads]
        level, seen = [], {}  # each distinct local action is built and checked once
        for v in range(0, len(moves), n):
            key = tuple(moves[v:v + n])
            sigma = seen.get(key)
            if sigma is None:
                sigma = seen[key] = Permutation(key)
                r = key[0]
                if (spec.kind == "A" and sigma.parity()
                        or spec.kind == "C" and key != tuple(range(r, n)) + tuple(range(r))):
                    raise ConsistencyError(f"{format_cycles(w)} acts by {format_cycles(sigma)}, "
                                           f"not an element of {spec.token()}, at level {i} "
                                           f"of {t.text()}")
            level.append(sigma)
        out.append(level)
    return out


def tower_generators(t: TowerSpec) -> list[Permutation]:
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
    """The wreath product W as a leaf permutation group, with its chain built.

    The construction is certified rather than assumed.  Every generator's
    local actions are read, which refuses one outside W, so <gens> <= W;
    the chain, built to the order |W| of the closed-form product, then
    shows |<gens>| >= |W| (bsgs_build), so <gens> = W.
    """
    gens = tower_generators(t)
    for w in gens:
        local_actions(t, w)
    g = PermGroup(t.leaf_count(), gens, t.order())
    g.bsgs()
    return g


# ---------------------------------------------------------------------------
# the two-generator pair for A_n;C3;C2;C2


def example_tower(n: int) -> TowerSpec:
    """The A_n;C3;C2;C2 tower of the explicit pair; BadInput unless n is odd >= 5."""
    if n < 5 or n % 2 == 0:
        raise BadInput("the example pair needs odd n >= 5")
    return TowerSpec((GroupSpec("A", n), GroupSpec("C", 3),
                      GroupSpec("C", 2), GroupSpec("C", 2)))


def example_generators(n: int) -> tuple[Permutation, Permutation]:
    """The explicit pair (x, y) generating the A_n;C3;C2;C2 tower, n odd >= 5.

    x applies (1 2) at vertex (1,1), then (1 2 3) at vertex (5,), then
    (1 2)(3 4) at the root; y applies (1 2) at vertex (1,1,1) and the
    (n-2)-cycle (2 4 5 .. n) at the root.  Deeper components act first.
    """
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
