"""Brute-force certification of minimal generator counts.

Nothing in here consults the closed forms: lower bounds come from the
abelianization rank, non-cyclicity, or an exhaustive scan over tuples of
Cayley-table indices, and upper bounds come from explicit witness tuples
whose generated chain order is compared with the group order.  Formula
and oracle meeting in the middle is the point of the exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .permcore import (
    PermGroup,
    Permutation,
    abelian_p_ranks,
    bsgs_build,
    cayley_walk,
    format_cycles,
)


class OrderLimitExceeded(RuntimeError):
    """The group is too large for exhaustive tuple scanning."""


@dataclass
class GenSearchConfig:
    seed: int = 1
    random_attempts: int = 200
    exhaustive_order_limit: int = 20000
    conjugacy_reduction: bool = True


@dataclass
class GenResult:
    lower: int
    lower_certificate: str  # "abelianization" | "noncyclic" | "exhaustive(k)" | "trivial"
    upper: int
    witness: tuple[Permutation, ...]
    status: str  # "exact" | "bounds_only"
    seed: int

    def to_json(self) -> dict:
        return {
            "lower": self.lower, "lower_certificate": self.lower_certificate,
            "upper": self.upper, "witness": [format_cycles(w) for w in self.witness],
            "status": self.status, "seed": self.seed,
        }


class CayleyTable:
    """Full multiplication table over a canonical element list.

    Elements come from the breadth-first Cayley-graph walk, identity at
    index 0, whose edge table holds the generator columns; every other
    column j with e_j = e_parent * s follows by one vectorized gather,
    since x * e_j = (x * e_parent) * s.
    """

    def __init__(self, elements, index, table, gen_indices):
        self.elements: list[Permutation] = elements
        self.index: dict = index
        self.table: np.ndarray = table
        self.gen_indices: list[int] = gen_indices
        n = len(elements)
        rows, cols = np.nonzero(table == 0)
        inv = np.empty(n, dtype=table.dtype)
        inv[rows] = cols
        self.inverse = inv

    @classmethod
    def build(cls, g: PermGroup, limit: int) -> "CayleyTable":
        order = g.order()
        if order > limit:
            raise OrderLimitExceeded(f"|G| = {order} exceeds the limit {limit}")
        gens = list(dict.fromkeys(p for p in g.generators if not p.is_identity()))
        elements, edges = cayley_walk(g.degree, gens)
        n = len(elements)
        dtype = np.int16 if n < 2 ** 15 else np.int32
        edges = np.array(edges, dtype=dtype)  # column s: x -> x * s
        table = np.empty((n, n), dtype=dtype)
        table[:, 0] = np.arange(n, dtype=dtype)
        # an element's first edge comes from its parent, whose column is
        # filled first because the parent was discovered earlier
        targets, first = np.unique(edges, return_index=True)
        for j, f in zip(targets.tolist(), first.tolist()):
            if j:
                par, slot = divmod(f, len(gens))
                table[:, j] = edges[:, slot][table[:, par]]
        index = {e.images: i for i, e in enumerate(elements)}
        return cls(elements, index, table, edges[0].tolist())

    def __len__(self) -> int:
        return len(self.elements)

    def conjugate(self, x: int, g: int) -> int:
        return int(self.table[self.table[self.inverse[g], x], g])

    def conjugacy_class_reps(self) -> list[int]:
        n = len(self.elements)
        assigned = bytearray(n)
        reps = []
        for i in range(n):
            if assigned[i]:
                continue
            reps.append(i)
            stack = [i]
            assigned[i] = 1
            while stack:
                x = stack.pop()
                for g in self.gen_indices:
                    y = self.conjugate(x, g)
                    if not assigned[y]:
                        assigned[y] = 1
                        stack.append(y)
        return reps

    def closure_size(self, idxs) -> int:
        """|<elements at idxs>|; early exit at > n/2 means the whole group."""
        n = len(self.elements)
        half = n // 2
        member = np.zeros(n, dtype=bool)
        member[0] = True
        frontier = np.array([0], dtype=self.table.dtype)
        size = 1
        cols = list(dict.fromkeys(int(i) for i in idxs))
        while frontier.size:
            nxt = self.table[np.ix_(frontier, cols)].ravel()
            nxt = nxt[~member[nxt]]
            if nxt.size == 0:
                break
            nxt = np.unique(nxt)
            member[nxt] = True
            size += nxt.size
            if size > half:
                return n
            frontier = nxt
        return size


def is_cyclic(g: PermGroup) -> bool:
    """Exact: abelian with every p-rank of G/G' at most 1."""
    if not g.is_abelian():
        return False
    primes = g.prime_divisors()
    if not primes:
        return True
    return all(r <= 1 for r in abelian_p_ranks(g, primes).values())


def d_lower_bound(g: PermGroup) -> tuple[int, str]:
    """Certificate-backed lower bound: max of the abelianization rank and
    2 when the group is (exactly determined to be) non-cyclic."""
    order = g.order()
    if order == 1:
        return 0, "trivial"
    d_ab = max(abelian_p_ranks(g, g.prime_divisors()).values())
    if d_ab < 2 and not g.is_abelian():  # d_ab < 2: cyclic exactly when abelian
        return 2, "noncyclic"
    return max(d_ab, 1), "abelianization"


def _scan_for_generating_tuple(ct: CayleyTable, k: int, conjugacy_reduction: bool):
    """First k-tuple of element indices whose closure is everything, or None.

    The leading slot runs over conjugacy class representatives when
    reduction is on (generation is invariant under simultaneous
    conjugation); the remaining slots run over all elements.
    """
    n = len(ct)
    firsts = ct.conjugacy_class_reps() if conjugacy_reduction else range(n)
    if k == 1:
        for i in firsts:
            if ct.closure_size((i,)) == n:
                return (i,)
        return None

    def rec(prefix, depth):
        if depth == k:
            return prefix if ct.closure_size(prefix) == n else None
        for j in range(n):
            hit = rec(prefix + (j,), depth + 1)
            if hit is not None:
                return hit
        return None

    for i in firsts:
        hit = rec((i,), 1)
        if hit is not None:
            return hit
    return None


def exhaustive_nongeneration(g: PermGroup, k: int, cfg: GenSearchConfig | None = None) -> bool:
    """True when no k-tuple of elements generates g (checked exhaustively)."""
    cfg = cfg or GenSearchConfig()
    if k < 1:
        return g.order() > 1
    ct = CayleyTable.build(g, cfg.exhaustive_order_limit)
    return _scan_for_generating_tuple(ct, k, cfg.conjugacy_reduction) is None


def _rattle(gens: list[Permutation], rng: random.Random, degree: int):
    """Seeded product-replacement state; draws well-mixed elements."""
    slots = list(gens) * 2 + [Permutation.identity(degree)]
    acc = Permutation.identity(degree)
    for _ in range(len(slots) * 10):
        i, j = rng.randrange(len(slots)), rng.randrange(len(slots))
        if i != j:
            slots[i] = slots[i] * slots[j]
            acc = acc * slots[i]

    def draw() -> Permutation:
        nonlocal acc
        for _ in range(3):
            i, j = rng.randrange(len(slots)), rng.randrange(len(slots))
            if i != j:
                slots[i] = slots[i] * slots[j]
                acc = acc * slots[i]
        return acc

    return draw


def find_generating_tuple(g: PermGroup, k: int, cfg: GenSearchConfig | None = None):
    """Random witness search: cfg.random_attempts seeded candidates, each
    certified by chain order equality; None when none generates."""
    cfg = cfg or GenSearchConfig()
    if k < 1:
        return None
    order = g.order()
    rng = random.Random(cfg.seed)
    draw = _rattle(list(g.generators), rng, g.degree)
    for _ in range(cfg.random_attempts):
        cand = tuple(draw() for _ in range(k))
        chain = bsgs_build(PermGroup(g.degree, cand))
        if chain.order() == order:
            return cand
    return None


def min_generators(g: PermGroup, cfg: GenSearchConfig | None = None) -> GenResult:
    """Bracket d(g) between certified bounds; exact when they meet.

    Lower bounds never come from the closed forms: the ladder is
    abelianization rank, then non-cyclicity, then exhaustive k-tuple
    scans (feasible only within cfg.exhaustive_order_limit).  The upper
    bound is always held by an explicit witness; the generating set
    itself serves as the initial one.
    """
    cfg = cfg or GenSearchConfig()
    order = g.order()
    if order == 1:
        return GenResult(0, "trivial", 0, (), "exact", cfg.seed)
    lower, cert = d_lower_bound(g)
    witness = tuple(p for p in dict.fromkeys(g.generators) if not p.is_identity())
    upper = len(witness)
    can_exhaust = order <= cfg.exhaustive_order_limit
    ct = CayleyTable.build(g, cfg.exhaustive_order_limit) if can_exhaust else None

    k = max(lower, 1)
    while k < upper:
        found = find_generating_tuple(g, k, cfg)
        if found is None and can_exhaust:
            idxs = _scan_for_generating_tuple(ct, k, cfg.conjugacy_reduction)
            if idxs is None:
                # certified: no k-tuple generates
                lower, cert = k + 1, f"exhaustive({k})"
                k += 1
                continue
            found = tuple(ct.elements[i] for i in idxs)
        if found is None:
            k += 1  # random search failed and the group is too big to scan
            continue
        witness, upper = found, k
        break

    status = "exact" if lower == upper else "bounds_only"
    return GenResult(lower, cert, upper, witness, status, cfg.seed)
