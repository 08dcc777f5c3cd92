"""Permutations, permutation groups and stabilizer-chain machinery.

Points are 0-based internally; all cycle-notation text I/O is 1-based.
Products apply left to right: (p * q)(x) = q(p(x)), i.e. the right-action
convention x^(pq) = (x^p)^q.  Group orders are exact Python integers.
"""

from __future__ import annotations

import math
import re
from collections import deque


class ParseError(ValueError):
    """Malformed cycle notation or tower text."""


class DegreeMismatch(ValueError):
    """Operands act on different point sets."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def prime_factorization(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1 by trial division, primes ascending;
    empty for n < 2."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors[d] = e
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """A bijection of {0..m-1} stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not describe a bijection of 0..m-1")
        self.images = images

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        # internal constructor, skips the bijection check
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(other.images) != len(self.images):
            raise DegreeMismatch("cannot compose permutations of different degree")
        q = other.images
        return Permutation._raw(tuple(q[x] for x in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation._raw(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self, h: "Permutation") -> "Permutation":
        """h^-1 * self * h."""
        return h.inverse() * self * h

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def moved_points(self) -> list[int]:
        return [x for x, y in enumerate(self.images) if x != y]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_TOKEN_RE = re.compile(r"^\s*(?:\(\s*(?:\d+\s*)+\)\s*)+$|^\s*\(\s*\)\s*$|^\s*id\s*$")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint cycle notation; "()" and "id" mean the identity."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if not _TOKEN_RE.match(text):
        raise ParseError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    if text.strip() == "id":
        return Permutation._raw(tuple(images))
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).split()
        if not body:
            continue  # "()" is the identity
        pts = []
        for tok in body:
            val = int(tok)
            if not 1 <= val <= degree:
                raise ParseError(f"point {val} out of range 1..{degree}")
            if val - 1 in seen:
                raise ParseError(f"point {val} repeated")
            seen.add(val - 1)
            pts.append(val - 1)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Permutation._raw(tuple(images))


def format_cycles(p: Permutation) -> str:
    """1-based cycle notation; the identity formats as "id"."""
    cycs = p.cycles()
    if not cycs:
        return "id"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)


# ---------------------------------------------------------------------------
# raw-element kernels
#
# Stabilizer chains handle many thousands of compositions, so elements are
# kept in a flat representation chosen per degree: for degree <= 255, padded
# 256-byte strings, where composition is bytes.translate (C speed); above
# that, plain tuples.

_TAIL256 = bytes(range(256))


class _BytesKernel:
    __slots__ = ("degree", "ident")

    def __init__(self, degree):
        self.degree = degree
        self.ident = _TAIL256

    def from_images(self, images):
        return bytes(images) + _TAIL256[len(images):]

    def to_images(self, raw):
        return tuple(raw[: self.degree])

    @staticmethod
    def compose(a, b):
        return a.translate(b)

    @staticmethod
    def inverse(raw):
        inv = bytearray(256)
        for x, y in enumerate(raw):
            inv[y] = x
        return bytes(inv)


class _TupleKernel:
    __slots__ = ("degree", "ident")

    def __init__(self, degree):
        self.degree = degree
        self.ident = tuple(range(degree))

    def from_images(self, images):
        return tuple(images)

    def to_images(self, raw):
        return raw

    @staticmethod
    def compose(a, b):
        return tuple(b[x] for x in a)

    @staticmethod
    def inverse(raw):
        inv = [0] * len(raw)
        for x, y in enumerate(raw):
            inv[y] = x
        return tuple(inv)


def _make_kernel(degree):
    return _BytesKernel(degree) if degree <= 255 else _TupleKernel(degree)


# ---------------------------------------------------------------------------
# base and strong generating sets


class _Level:
    __slots__ = ("point", "gens", "orbit", "inv", "pending")

    def __init__(self, point, ident):
        self.point = point
        self.gens = []  # raw strong generators fixing all base points above
        self.orbit = {point: ident}  # pt -> u with u(base point) = pt
        self.inv = {point: ident}
        self.pending = deque()  # (orbit point, generator index) not yet expanded


class Bsgs:
    """Base and strong generating set via deterministic Schreier-Sims.

    Base points are chosen as the smallest point moved by the generator
    that forces the new level, and all work queues are FIFO, so the
    structure is a pure function of the generator sequence.  extend()
    sifts a new generator and re-closes the chain incrementally, which
    keeps normal closures and subgroup joins cheap.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self._k = _make_kernel(degree)
        self._levels: list[_Level] = []
        self._strong: list = []  # raw, insertion order

    # -- public api ---------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lv.point for lv in self._levels)

    @property
    def strong_generators(self) -> list[Permutation]:
        return [Permutation._raw(self._k.to_images(g)) for g in self._strong]

    def order(self) -> int:
        n = 1
        for lv in self._levels:
            n *= len(lv.orbit)
        return n

    def order_factored(self) -> dict[int, int]:
        """Prime factorization of the order (orbit sizes are <= degree)."""
        factors: dict[int, int] = {}
        for lv in self._levels:
            for p, e in prime_factorization(len(lv.orbit)).items():
                factors[p] = factors.get(p, 0) + e
        return factors

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch("membership test across degrees")
        r, _ = self._sift(self._k.from_images(p.images), 0)
        return r is None

    def extend(self, p: Permutation) -> bool:
        """Add a generator; returns True if the group grew."""
        if p.degree != self.degree:
            raise DegreeMismatch("generator degree differs from chain degree")
        return self._extend_raw(self._k.from_images(p.images))

    def transversal(self, i: int) -> dict[int, Permutation]:
        lv = self._levels[i]
        return {pt: Permutation._raw(self._k.to_images(u)) for pt, u in lv.orbit.items()}

    def fork(self) -> "Bsgs":
        """Independent copy sharing immutable element data."""
        other = Bsgs.__new__(Bsgs)
        other.degree = self.degree
        other._k = self._k
        other._strong = list(self._strong)
        other._levels = []
        for lv in self._levels:
            c = _Level(lv.point, self._k.ident)
            c.gens = list(lv.gens)
            c.orbit = dict(lv.orbit)
            c.inv = dict(lv.inv)
            c.pending = deque(lv.pending)
            other._levels.append(c)
        return other

    # -- internals ----------------------------------------------------------

    def _sift(self, g, start):
        """Reduce g through levels start..; returns (residue or None, level).

        The residue fixes the base points of all levels < level and, if
        level < len(levels), moves the base point there.  None means g is
        a member of the subchain.
        """
        compose = self._k.compose
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            pt = g[lv.point]
            if pt == lv.point:
                continue
            ui = lv.inv.get(pt)
            if ui is None:
                return g, i
            g = compose(g, ui)
        if g == self._k.ident:
            return None, len(self._levels)
        return g, len(self._levels)

    def _extend_raw(self, g) -> bool:
        if g == self._k.ident:
            return False
        r, lvl = self._sift(g, 0)
        if r is None:
            return False
        self._insert(r, 0, lvl)
        self._run()
        return True

    def _insert(self, g, lo, hi):
        # g fixes the base points of levels < hi; register it as a strong
        # generator for every level lo..hi, creating a level when g fixes
        # the whole current base.
        if hi == len(self._levels):
            moved = min(x for x in range(self.degree) if g[x] != x)
            self._levels.append(_Level(moved, self._k.ident))
        self._strong.append(g)
        for m in range(lo, hi + 1):
            lv = self._levels[m]
            gi = len(lv.gens)
            lv.gens.append(g)
            lv.pending.extend((pt, gi) for pt in lv.orbit)

    def _run(self):
        i = len(self._levels) - 1
        while i >= 0:
            dropped = self._process(i)
            if dropped is None:
                i -= 1
            else:
                i = dropped

    def _process(self, i):
        """Drain level i's work queue; returns the level of any insertion."""
        lv = self._levels[i]
        compose = self._k.compose
        inverse = self._k.inverse
        while lv.pending:
            pt, gi = lv.pending.popleft()
            s = lv.gens[gi]
            q = s[pt]
            w = compose(lv.orbit[pt], s)
            uq = lv.orbit.get(q)
            if uq is None:
                lv.orbit[q] = w
                lv.inv[q] = inverse(w)
                lv.pending.extend((q, gj) for gj in range(len(lv.gens)))
                continue
            if w == uq:
                continue  # tree edge, trivial Schreier generator
            g = compose(w, lv.inv[q])
            r, lvl = self._sift(g, i + 1)
            if r is not None:
                self._insert(r, i + 1, lvl)
                return lvl
        return None


def bsgs_build(g: "PermGroup") -> Bsgs:
    b = Bsgs(g.degree)
    for gen in g.generators:
        b.extend(gen)
    return b


# ---------------------------------------------------------------------------
# permutation groups


class PermGroup:
    """A permutation group on {0..m-1} given by generators."""

    def __init__(self, degree: int, generators):
        generators = tuple(generators)
        if not generators:
            generators = (Permutation.identity(degree),)
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree differs from group degree")
        self.degree = degree
        self.generators = generators
        self._bsgs: Bsgs | None = None
        self._derived: PermGroup | None = None

    @classmethod
    def from_cycles(cls, degree: int, *cycle_texts: str) -> "PermGroup":
        return cls(degree, [parse_cycles(t, degree) for t in cycle_texts])

    def bsgs(self) -> Bsgs:
        if self._bsgs is None:
            self._bsgs = bsgs_build(self)
        return self._bsgs

    def order(self) -> int:
        return self.bsgs().order()

    def contains(self, p: Permutation) -> bool:
        return self.bsgs().contains(p)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(gens[i] * gens[j] == gens[j] * gens[i]
                   for i in range(len(gens)) for j in range(i + 1, len(gens)))

    def prime_divisors(self) -> list[int]:
        return sorted(self.bsgs().order_factored())

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def cayley_walk(degree: int, gens, limit: int | None = None):
    """Breadth-first walk of the Cayley graph of <gens> by right multiplication.

    Returns (elements, edges): the elements in discovery order, identity
    first, and edges[i][j] = index of elements[i] * gens[j].  Rows are
    walked in order, so the first edge into an element, in row-major
    order, is the one that discovered it, from an earlier row.

    Raises ConsistencyError if more than `limit` elements appear.
    """
    k = _make_kernel(degree)
    raw_gens = [k.from_images(s.images) for s in gens]
    index = {k.ident: 0}
    order = [k.ident]
    edges: list[list[int]] = []
    for e in order:  # grows while it is walked
        row = []
        for s in raw_gens:
            f = k.compose(e, s)
            j = index.get(f)
            if j is None:
                j = len(order)
                if limit is not None and j >= limit:
                    raise ConsistencyError(f"group exceeds element limit {limit}")
                index[f] = j
                order.append(f)
            row.append(j)
        edges.append(row)
    return [Permutation._raw(k.to_images(e)) for e in order], edges


def enumerate_elements(g: PermGroup, limit: int | None = None) -> list[Permutation]:
    """All elements by breadth-first closure, identity first.

    Raises ConsistencyError if more than `limit` elements appear.
    """
    return cayley_walk(g.degree, g.generators, limit)[0]


def derived_subgroup(g: PermGroup) -> PermGroup:
    """Normal closure of the generator commutators, as a PermGroup."""
    if g._derived is not None:
        return g._derived
    chain = Bsgs(g.degree)
    closure_gens: list[Permutation] = []
    queue = deque()
    gens = g.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = gens[i].inverse() * gens[j].inverse() * gens[i] * gens[j]
            if not c.is_identity():
                queue.append(c)
    while queue:
        c = queue.popleft()
        if chain.contains(c):
            continue
        chain.extend(c)
        closure_gens.append(c)
        queue.extend(c.conj(s) for s in gens)
    d = PermGroup(g.degree, closure_gens)
    d._bsgs = chain
    g._derived = d
    return d


def abelian_p_rank(g: PermGroup, p: int) -> int:
    """Rank d_p of the abelianization G/G', via the index of <G' u {g^p}>."""
    ranks = abelian_p_ranks(g, [p])
    return ranks[p]


def abelian_p_ranks(g: PermGroup, primes) -> dict[int, int]:
    """d_p(G/G') for several primes, sharing one derived-subgroup chain."""
    order = g.order()
    dchain = derived_subgroup(g).bsgs()
    out: dict[int, int] = {}
    for p in primes:
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        chain = dchain.fork()
        for gen in g.generators:
            chain.extend(gen ** p)
        index, rem = divmod(order, chain.order())
        if rem:
            raise ConsistencyError("subgroup order does not divide group order")
        rank = 0
        while index % p == 0:
            index //= p
            rank += 1
        if index != 1:
            raise ConsistencyError(
                f"index of <G' u p-th powers> is not a power of {p}")
        out[p] = rank
    return out
