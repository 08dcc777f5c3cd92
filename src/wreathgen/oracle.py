"""Brute-force certification of minimal generator counts.

Nothing in here consults the closed forms: lower bounds come from the
abelianization rank, non-cyclicity, or an exhaustive scan over tuples of
Cayley-table indices, and upper bounds come from explicit witness tuples
whose generated chain order is compared with the group order.  Formula
and oracle meeting in the middle is the point of the exercise.  The
oracle's input is a tower, and the abelianization rank is read off its
generators' local actions; each level's characters are worked out here
from the level's kind and degree, never from the closed form's
per-level facts.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass

from .modfp import RowSpace
from .permcore import (
    BudgetExceeded,
    PermGroup,
    Permutation,
    bsgs_build,
    cayley_walk,
    format_cycles,
    prime_factorization,
    rattle,
)
from .wreath import GroupSpec, TowerSpec, local_actions, tower_group


# the exhaustive scan's Cayley table is budgeted in its own bytes; 800 MB
# is the int16 table of 20,000 elements
TABLE_BYTE_BUDGET = 800_000_000


def _table_fits(order: int) -> bool:
    """Whether the n x n int16 Cayley table of a group of this order fits
    TABLE_BYTE_BUDGET; the budget admits fewer than 2^15 elements, so
    every admitted index fits int16."""
    return order * order * 2 <= TABLE_BYTE_BUDGET


@dataclass
class GenResult:
    lower: int
    lower_certificate: str  # "abelianization" | "noncyclic" | "exhaustive(k)"
    witness: tuple[Permutation, ...]
    seed: int

    @property
    def upper(self) -> int:
        return len(self.witness)

    @property
    def status(self) -> str:
        return "exact" if self.lower == self.upper else "bounds_only"

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
    column t, with e_t = e_i * s discovered by the walk's tree edge from
    the earlier row i, follows by one vectorized gather, since
    x * e_t = (x * e_i) * s.  The table is a numpy array, and `build` is
    the one place that imports numpy: a run that never scans a table,
    as most `verify` runs do not, never loads it.
    """

    def __init__(self, elements, table, gen_indices):
        self.elements: list[Permutation] = elements
        self.table = table  # numpy.ndarray, n x n, column-major
        self.gen_indices: list[int] = gen_indices

    @classmethod
    def build(cls, g: PermGroup) -> "CayleyTable":
        order = g.order()
        if not _table_fits(order):
            raise BudgetExceeded(f"the Cayley table of {order} elements exceeds "
                                 f"the budget of {TABLE_BYTE_BUDGET} bytes")
        import numpy as np

        gens = list(dict.fromkeys(p for p in g.generators if not p.is_identity()))
        elements, edges, tree = cayley_walk(g.degree, gens)
        n = len(elements)
        edges = np.array(edges, dtype=np.int16)  # column s: x -> x * s
        # column-major: every write below fills one contiguous column
        table = np.empty((n, n), dtype=np.int16, order="F")
        table[:, 0] = np.arange(n, dtype=np.int16)
        # a tree edge leaves an earlier row, whose column is already filled
        for t, e in enumerate(tree, 1):
            par, slot = divmod(e, len(gens))
            table[:, t] = edges[:, slot][table[:, par]]
        return cls(elements, table, edges[0].tolist())

    def __len__(self) -> int:
        return len(self.elements)

    def conjugacy_class_reps(self) -> list[int]:
        """The least index of each conjugacy class, in increasing order."""
        t = self.table
        maps = []
        for g in self.gen_indices:
            g_inv = int(t[:, g].argmin())  # the row that column g maps to 0
            maps.append(t[t[g_inv, :], g].tolist())  # x -> g^-1 * x * g
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
                for conj in maps:
                    y = conj[x]
                    if not assigned[y]:
                        assigned[y] = 1
                        stack.append(y)
        return reps

    def closure_size(self, idxs) -> int:
        """|<elements at idxs>|, or n as soon as more than n/2 are reached.

        Breadth-first search from the identity along the columns of idxs:
        in a finite group every inverse is a positive power, so the
        elements reached are exactly the generated subgroup.  The early
        exit is sound by Lagrange: a proper subgroup has index at least
        2, so a subset of the closure with more than n/2 elements means
        the closure is the whole group.
        """
        n = len(self.elements)
        half = n // 2
        # the closures the scans meet are mostly small, where plain indexing
        # beats numpy's fixed cost per array call; the table is column-major,
        # so a column's memoryview is a view and copies nothing
        cols = [memoryview(self.table[:, c]) for c in dict.fromkeys(map(int, idxs)) if c]
        if not cols:
            return 1
        # the closure is a union of cosets y<a>, a the first element: each
        # element reached outside the marked cosets brings its whole coset,
        # walked along column a without a membership test
        a, *rest = cols
        member = bytearray(n)
        member[0] = 1
        frontier = [0]
        y = a[0]
        while y:
            member[y] = 1
            frontier.append(y)
            y = a[y]
        size = len(frontier)
        while frontier:
            reached = []
            for col in rest:
                for x in frontier:
                    y = col[x]
                    if not member[y]:
                        start = y
                        while True:
                            member[y] = 1
                            reached.append(y)
                            y = a[y]
                            if y == start:
                                break
            size += len(reached)
            if size > half:
                return n
            frontier = reached
        return size


def _pair_partition(s: Permutation) -> int:
    """Alt 4 -> Z_3: s permutes the three pair partitions of {0, 1, 2, 3}
    by a rotation, which moves {01|23} to {0a|bc}; the rotation is a - 1."""
    images = [s(x) for x in range(4)]
    j = images.index(0)
    return images[j ^ 1] - 1  # the point paired with 0 in the image of {01|23}


def _characters(spec: GroupSpec) -> list[tuple[int, Callable[[Permutation], int]]]:
    """Homomorphisms f from a level's group onto Z_p, as (p, f), one per
    Z_p factor of its abelianization: the rotation mod p for Cyc n, each
    prime p dividing n; the sign for Sym n; the pair partitions for Alt 4;
    none for Alt n, n >= 5."""
    if spec.kind == "C":
        return [(p, lambda s, p=p: s(0) % p) for p in prime_factorization(spec.n)]
    if spec.kind == "S":
        return [(2, Permutation.parity)]
    return [(3, _pair_partition)] if spec.n == 4 else []


def level_sum_ranks(g: PermGroup, tower: TowerSpec) -> dict[int, int]:
    """{p: d_p of g's image under the level sums}, for a g inside the
    tower's group W.

    For a character f: G_i -> Z_p the level sum phi(w) = sum over the
    vertices v of level i of f(sigma_v(w)) is a homomorphism W -> Z_p,
    since sigma_v(wu) = sigma_v(w) sigma_{v^w}(u) and v -> v^w permutes
    the level.  The images of g's generators span g's image in F_p^m, m
    the characters at p, so their rank r gives d(g) >= r.  Every
    generator's local actions are read, which refuses one outside W with
    ConsistencyError, before any rank is taken.
    """
    actions = [local_actions(tower, w) for w in g.generators]
    # per prime, one vector per character: its level sum at each generator
    # (the transpose of the generators' images, which has the same rank)
    sums: dict[int, list[list[tuple[int, int]]]] = {}
    for i, spec in enumerate(tower.levels):
        for p, f in _characters(spec):
            sums.setdefault(p, []).append(
                [(j, r) for j, acts in enumerate(actions) if (r := sum(map(f, acts[i])) % p)])
    return {p: RowSpace.span(vectors, p, len(actions)).dim for p, vectors in sums.items()}


def d_lower_bound(g: PermGroup, tower: TowerSpec) -> tuple[int, str]:
    """Certificate-backed lower bound on d(g), g the tower's group W given
    by any generators: the largest rank of their level-sum images
    (`level_sum_ranks`), or 2 when that is below 2 and two generators do
    not commute.  Builds no chain.  The bound is at least 1, since an
    abelian W is one cyclic level C_n, which its rotation mod p maps onto
    Z_p for each prime p | n."""
    d_ab = max(level_sum_ranks(g, tower).values(), default=0)
    if d_ab < 2 and not g.is_abelian():  # d_ab < 2: cyclic exactly when abelian
        return 2, "noncyclic"
    return d_ab, "abelianization"


def _scan_for_generating_tuple(ct: CayleyTable, k: int):
    """First k-tuple of element indices whose closure is everything, or None.

    The leading slot runs over conjugacy class representatives, since
    generation is invariant under simultaneous conjugation; the remaining
    slots run over all elements.
    """
    n = len(ct)
    for i in ct.conjugacy_class_reps():
        for rest in itertools.product(range(n), repeat=k - 1):
            if ct.closure_size((i, *rest)) == n:
                return (i, *rest)
    return None


def find_generating_tuple(g: PermGroup, k: int, seed: int, attempts: int):
    """Random witness search: `attempts` candidates drawn from `seed`, each
    certified by chain order equality; None when none generates.  No name
    holds a candidate's chain, so it is freed before the next is built."""
    order = g.order()
    rng = random.Random(seed)
    draw = rattle(g.generators, rng, g.degree)
    for _ in range(attempts):
        cand = tuple(draw() for _ in range(k))
        if bsgs_build(PermGroup(g.degree, cand)).order() == order:
            return cand
    return None


def min_generators(tower: TowerSpec, seed: int, attempts: int) -> GenResult:
    """Bracket d(W), W the tower's group, between certified bounds; exact
    when they meet.

    Lower bounds never come from the closed forms: the ladder is
    abelianization rank (read off the tower's local actions), then
    non-cyclicity, then exhaustive k-tuple scans (only where the table
    fits TABLE_BYTE_BUDGET).  The upper bound is always held by an
    explicit witness; the tower's generators serve as the initial one.
    """
    g = tower_group(tower)
    lower, cert = d_lower_bound(g, tower)
    witness = g.generators
    ct = None  # built at the first scan; a witness often settles d first
    for k in range(lower, len(witness)):
        found = find_generating_tuple(g, k, seed, attempts)
        if found is None and _table_fits(g.order()):
            if ct is None:
                ct = CayleyTable.build(g)
            idxs = _scan_for_generating_tuple(ct, k)
            if idxs is None:
                # certified: no k-tuple generates
                lower, cert = k + 1, f"exhaustive({k})"
                continue
            found = tuple(ct.elements[i] for i in idxs)
        if found is not None:  # None: no witness drawn and no table fits
            witness = found
            break
    return GenResult(lower, cert, witness, seed)
