"""Permutations, permutation groups and stabilizer-chain machinery.

Points are 0-based internally; all cycle-notation text I/O is 1-based.
Products apply left to right: (p * q)(x) = q(p(x)), i.e. the right-action
convention x^(pq) = (x^p)^q.  Group orders are exact Python integers.
"""

from __future__ import annotations

import math
import random
import re
import sys
from collections import deque
from itertools import combinations, repeat
from operator import itemgetter, ne


class BadInput(ValueError):
    """Outside input refused by the module that owns the rule; the message is for the user."""


class ParseError(BadInput):
    """Malformed cycle notation or tower text."""


class DegreeMismatch(ValueError):
    """Operands act on different point sets."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class BudgetExceeded(RuntimeError):
    """A computation would overrun its budget; not a bug and not bad input."""


# trial division stops at TRIAL_DIVISION_BOUND; what is factored is a level
# degree (`GroupSpec.abelian_primes`, `oracle._characters`) or a prime p
# (`modfp._require_prime`, `abelian_p_ranks`), and the bound is past the
# square root of every p below 2^32; a cofactor left over is certified prime
# by Miller-Rabin with the first 13 prime bases, which is exact below
# _MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86, 2017)
TRIAL_DIVISION_BOUND = 2 ** 16
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int) -> bool:
    """Whether odd n > 41 passes the strong test to every base in
    _MR_BASES; below _MR_EXACT_BELOW, exactly when n is prime."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factorization(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, primes ascending; empty for n < 2.

    Trial division up to TRIAL_DIVISION_BOUND, then Miller-Rabin on the
    cofactor; raises BudgetExceeded for a cofactor that is composite or
    past the range where the test is exact, since neither is split.
    """
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d <= n and not (n < _MR_EXACT_BELOW and _strong_probable_prime(n)):
            kind = "composite" if n < _MR_EXACT_BELOW else "past the exact Miller-Rabin range"
            raise BudgetExceeded(
                f"factoring budget: trial division up to {TRIAL_DIVISION_BOUND} leaves "
                f"a {n.bit_length()}-bit cofactor that is {kind}")
        factors[n] = 1
    return factors


# ---------------------------------------------------------------------------
# permutations
#
# A permutation is stored as its images, in a form chosen from the degree:
# up to degree 255, the `degree` bytes of its images, composed by
# bytes.translate and inverted by bytes.maketrans; above 255, the tuple of
# images, composed by one itemgetter over the left factor's images.  Both
# compositions run at C speed.
#
# bytes.translate needs its right operand as a 256-byte table, the images
# padded with fixed points, and returns a string as long as its left one.
# _table makes that table, and _invert returns one; above 255 the tuple is
# its own table, and a table composed with a table is a table.
# Permutation.__mul__ pads its right factor, cayley_walk its generators
# once, and rattle keeps its slots as tables.  Bsgs keeps as tables each
# strong generator s with its inverse, and per orbit point the inverse
# transversal element u^-1 that its sift composes on the right, formed as
# s^-1 u^-1; a deterministic chain also keeps each u in stored form, which
# its Schreier generators read.  _pack, _composer, _table, _invert and
# _first_moved are the only code that knows these formats.

_IDENT256 = bytes(range(256))


def _pack(images):
    """Stored form of a sequence of images of 0..m-1."""
    return bytes(images) if len(images) <= 255 else tuple(images)


def _table(a):
    """The right-operand form of a: its images padded with fixed points."""
    return a + _IDENT256[len(a):] if type(a) is bytes else a


def _compose_tuples(a, b):
    return itemgetter(*a)(b)  # a has more than one image, so this is a tuple


def _composer(degree: int):
    """The composition of stored forms of this degree: it maps (a, b) to
    the stored form of x -> b[a[x]], the product a * b."""
    return bytes.translate if degree <= 255 else _compose_tuples


def _first_moved(a) -> int:
    """Least point a stored form or table moves; a is not the identity."""
    if type(a) is bytes:
        # read big-endian, a XOR identity has its highest set bit in the
        # first byte where they differ
        diff = int.from_bytes(a, "big") ^ int.from_bytes(_IDENT256[:len(a)], "big")
        return len(a) - 1 - (diff.bit_length() - 1) // 8
    return list(map(ne, a, range(len(a)))).index(True)


def _invert(a, ident):
    """Inverse of a stored form, as a table.  Above degree 255 its entries
    are those of ident, the identity's stored form, so the inverses of a
    chain share its identity's int objects."""
    if type(a) is bytes:
        return bytes.maketrans(a, _IDENT256[:len(a)])
    inv = list(ident)
    for x, y in zip(ident, a):
        inv[y] = x
    return tuple(inv)


class Permutation:
    """A bijection of {0..degree-1}; `raw` is its stored form (see _pack)."""

    __slots__ = ("degree", "raw")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not describe a bijection of 0..m-1")
        self.degree = len(images)
        self.raw = _pack(images)

    @classmethod
    def _wrap(cls, degree: int, raw) -> "Permutation":
        # internal constructor from a stored form, skips the bijection check
        p = object.__new__(cls)
        p.degree = degree
        p.raw = raw
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._wrap(degree, _pack(range(degree)))

    def __call__(self, point: int) -> int:
        if not 0 <= point < self.degree:
            raise IndexError(f"point {point} outside 0..{self.degree - 1}")
        return self.raw[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise DegreeMismatch("cannot compose permutations of different degree")
        return Permutation._wrap(self.degree,
                                 _composer(self.degree)(self.raw, _table(other.raw)))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(self.degree, _invert(self.raw, range(self.degree))[:self.degree])

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
        return self.raw == _pack(range(self.degree))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        raw = self.raw
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or raw[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = raw[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = raw[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def parity(self) -> int:
        """0 for an even permutation, 1 for an odd one."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.raw == other.raw

    def __hash__(self) -> int:
        return hash(self.raw)

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
        return Permutation.identity(degree)
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
    return Permutation._wrap(degree, _pack(images))


def format_cycles(p: Permutation) -> str:
    """1-based cycle notation; the identity formats as "id"."""
    cycs = p.cycles()
    if not cycs:
        return "id"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)


# ---------------------------------------------------------------------------
# base and strong generating sets

# bytes of tables one stabilizer chain may store, counted as Bsgs says.
# S_n's chain to its known order stores about n^2 / 2 inverses of n points,
# about 4 n^3 bytes as tuples.  On a 2-core host S300 was counted at 112 MB
# and the pair of `example --n 75 --verify` (900 points) at 261 MB; S500,
# S800 and the pair of n = 77 are refused, S800 after 1.6 s at 274 MB max
# RSS.  In bytes form (degree <= 255) the count omits the per-point dict
# entries, which beside a table of that degree are not small: the pair of
# `example --n 21` (252 leaves) peaked at about 1.26 times its count.  The
# budget is per chain; `verify` holds at most the tower's chain and one
# witness chain at once
CHAIN_BYTE_BUDGET = 2 ** 28


class _Level:
    """One level of a chain: its base point; `gens`, a (table, inverse
    table) pair per strong generator fixing all base points above; and
    `inv`, pt -> u^-1 as a table for the transversal element u with
    u(base point) = pt, whose keys are the orbit.  A sift reads only
    `inv`.  A deterministic chain's level also keeps `orbit` (pt -> u),
    which its Schreier generators read, and a work queue of (orbit point,
    generator index) pairs; a known-order chain's level keeps neither
    (both None)."""

    __slots__ = ("point", "gens", "orbit", "inv", "pending")

    def __init__(self, point, ident, schreier: bool):
        self.point = point
        self.gens = []
        self.inv = {point: _table(ident)}
        self.orbit = {point: ident} if schreier else None
        self.pending = deque() if schreier else None


class Bsgs:
    """Base and strong generating set via deterministic Schreier-Sims, or
    built to a known order from random elements (_fill, see bsgs_build).

    Base points are chosen as the smallest point moved by the generator
    that forces the new level, and all work queues are FIFO, so the
    structure is a pure function of the generator sequence.  extend()
    sifts a new generator and re-closes the chain incrementally, which
    keeps normal closures cheap.

    Each extend() sifts a distinct Schreier generator at most once; a
    repeat is skipped, which changes nothing.  When level i takes up a
    pair, every deeper level's queue is empty, so levels i+1.. are a
    complete chain of the group H their strong generators generate, and
    H only grows.  A repeat g fixes the base points of levels 0..i, so
    its earlier sift divided it only by transversal elements of levels
    i+1.., which are never replaced, and ended at the identity or at a
    residue it made a strong generator of one of those levels.  Either
    way g lies in H, and sifting it again would end at the identity.
    The set of sifted generators lives in the extend() call: a finished
    chain holds none of it.

    Both builders hold s and s^-1 per strong generator, inverting s once,
    and store a new orbit point's u^-1 as s^-1 u_pt^-1, inverting nothing
    more.  A chain built to a known order (_fill) holds u^-1 per orbit
    point; a deterministic chain holds u and u^-1.

    The chain counts each table as it stores it, at the size of one
    table: two per strong generator and one or two per orbit point
    besides the base points.  The first table that would take the count
    past CHAIN_BYTE_BUDGET raises BudgetExceeded before it is stored.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self._ident = Permutation.identity(degree).raw
        self._compose = _composer(degree)
        self._levels: list[_Level] = []
        self._strong: list = []  # tables, insertion order
        self._tables = 0  # stored tables, counted as above
        self._table_bytes = sys.getsizeof(_table(self._ident))

    # -- public api ---------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lv.point for lv in self._levels)

    def order(self) -> int:
        n = 1
        for lv in self._levels:
            n *= len(lv.inv)
        return n

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch("membership test across degrees")
        r, _ = self._sift(p.raw)
        return r is None

    def extend(self, p: Permutation) -> bool:
        """Add a generator; returns True if the group grew.  Refused on a
        chain built to a known order, whose levels keep no orbit maps."""
        if p.degree != self.degree:
            raise DegreeMismatch("generator degree differs from chain degree")
        if self._levels and self._levels[0].orbit is None:
            raise ConsistencyError("a chain built to a known order takes no extend()")
        r, lvl = self._sift(p.raw)
        if r is None:
            return False
        self._insert(r, 0, lvl)
        self._run()
        return True

    # -- internals ----------------------------------------------------------

    def _sift(self, g, start=0):
        """Reduce stored form g through levels start..; returns (residue or None, level).

        The residue fixes the base points of levels start..level-1 and, if
        level < len(levels), moves the base point there.  None means g is
        a member of the group those levels generate.
        """
        compose = self._compose
        levels = self._levels
        for i in range(start, len(levels)):
            lv = levels[i]
            pt = g[lv.point]
            if pt == lv.point:
                continue
            ui = lv.inv.get(pt)
            if ui is None:
                return g, i
            g = compose(g, ui)
        return (None if g == self._ident else g), len(levels)

    def _adopt(self, r, lo, hi, schreier):
        """Make residue r, which fixes the base points of levels < hi, a
        strong generator of levels lo..hi, and return those levels: a new
        level when r fixes the whole base, its table in _strong, and one
        (s, s^-1) pair, inverted once here, shared by the levels."""
        levels = self._levels
        if hi == len(levels):
            levels.append(_Level(_first_moved(r), self._ident, schreier))
        self._store(2)
        s = _table(r)
        self._strong.append(s)
        pair = (s, _invert(s, self._ident))
        for lv in levels[lo:hi + 1]:
            lv.gens.append(pair)
        return levels[lo:hi + 1]

    def _store(self, tables: int) -> None:
        """Count `tables` more tables, about to be stored; raise
        BudgetExceeded instead if they would pass CHAIN_BYTE_BUDGET."""
        need = (self._tables + tables) * self._table_bytes
        if need > CHAIN_BYTE_BUDGET:
            raise BudgetExceeded(f"a stabilizer chain of degree {self.degree} may need {need} "
                                 f"bytes, over the budget of {CHAIN_BYTE_BUDGET}")
        self._tables += tables

    def _insert(self, r, lo, hi):
        # a deterministic level queues its new generator against its orbit
        for lv in self._adopt(r, lo, hi, schreier=True):
            lv.pending.extend(zip(lv.orbit, repeat(len(lv.gens) - 1)))

    def _run(self):
        sifted = set()  # the Schreier generators this extend() call has sifted
        i = len(self._levels) - 1
        while i >= 0:
            dropped = self._process(i, sifted)
            if dropped is None:
                i -= 1
            else:
                i = dropped

    def _process(self, i, sifted):
        """Drain level i's work queue; returns the level of any insertion.

        Each Schreier generator is sifted through the levels below i,
        unless it is in `sifted`, the generators the same extend() call has
        sifted; the class docstring says why skipping those changes nothing.
        """
        lv = self._levels[i]
        gens, orbit, inv, pending = lv.gens, lv.orbit, lv.inv, lv.pending
        compose = self._compose
        while pending:
            pt, gi = pending.popleft()
            s, s_inv = gens[gi]
            q = s[pt]
            w = compose(orbit[pt], s)
            uq = orbit.get(q)
            if uq is None:
                self._store(2)
                orbit[q] = w
                inv[q] = compose(s_inv, inv[pt])
                pending.extend(zip(repeat(q), range(len(gens))))
                continue
            if w == uq:
                continue  # tree edge, trivial Schreier generator
            g = compose(w, inv[q])
            if g in sifted:
                continue
            sifted.add(g)
            r, m = self._sift(g, i + 1)
            if r is not None:
                self._insert(r, i + 1, m)
                return m
        return None

    def _fill(self, gens, order):
        """Sift product-replacement draws of <gens> into the chain; see
        bsgs_build.

        Each residue becomes a strong generator of levels 0..lvl, lvl the
        level its sift stopped at, as in extend(), and _grow closes each
        of them.
        """
        # a fixed seed, so a build is a pure function of gens and order
        draw = rattle(gens, random.Random(0), self.degree)
        size, quiet = 1, 0
        while size < order and quiet < QUIET_DRAWS:
            r, lvl = self._sift(draw().raw)
            if r is None:
                quiet += 1
                continue
            quiet = 0
            for lv in self._adopt(r, 0, lvl, schreier=False):
                self._grow(lv)
            size = self.order()
        if size > order:
            raise ConsistencyError(f"a chain's order {size} passes the claimed {order}")

    def _grow(self, lv):
        """Close lv's orbit under its strong generators once the last of
        them has joined: one itemgetter call reads the new generator's
        images of the whole orbit, and only the points they add are
        walked, in the order a FIFO queue of (point, generator) pairs
        reaches them.  No Schreier generator is formed."""
        s, s_inv = lv.gens[-1]
        inv, compose = lv.inv, self._compose
        images = itemgetter(*inv)(s) if len(inv) > 1 else (s[lv.point],)
        if all(map(inv.__contains__, images)):
            return
        new = []
        for pt, q in zip(list(inv), images):
            if q not in inv:
                self._store(1)
                inv[q] = compose(s_inv, inv[pt])
                new.append(q)
        for pt in new:  # grows while it is walked
            for t, t_inv in lv.gens:
                q = t[pt]
                if q not in inv:
                    self._store(1)
                    inv[q] = compose(t_inv, inv[pt])
                    new.append(q)


def rattle(gens, rng: random.Random, degree: int):
    """Seeded product-replacement state on gens; returns a function that
    draws well-mixed elements of <gens>.  The witness search and a chain
    built to a known order both draw from it.  The slots are kept as
    tables, which compose into tables, so no step pads an operand."""
    compose = _composer(degree)
    ident = _table(Permutation.identity(degree).raw)
    slots = [_table(g.raw) for g in gens] * 2 + [ident]
    acc = ident

    def step():
        nonlocal acc
        i, j = rng.randrange(len(slots)), rng.randrange(len(slots))
        if i != j:
            slots[i] = compose(slots[i], slots[j])
            acc = compose(acc, slots[i])

    for _ in range(len(slots) * 10):
        step()

    def draw() -> Permutation:
        for _ in range(3):
            step()
        return Permutation._wrap(degree, acc[:degree])

    return draw


# a known-order chain gives up after this many draws in a row sift through
# it.  Each level's group contains the next level's, so if the chain falls
# short, the deepest level i whose levels i.. sift only part of G_i (the
# stabilizer of the base points above) holds what levels i+1.. sift, G_i's
# stabilizer of its base point: its orbit length properly divides the
# basic orbit's.  A uniform draw then sifts through with chance at most
# 1/2, and a chain that could still grow gives up with chance about 2^-40
# (Seress, Permutation Group Algorithms, 2003, sec. 4.3).  Without the
# containment an orbit can fall short by less: A18's by 1 of 18
QUIET_DRAWS = 40


def bsgs_build(g: "PermGroup", order: int | None = None) -> Bsgs:
    """A chain of <g.generators>.

    With no order: deterministic Schreier-Sims, one extend() per generator.
    With an order the caller knows, a chain that sifts product-replacement
    draws and, as extend() does, makes a residue a strong generator of
    every level down to the one its sift stopped at; those levels' orbits
    grow by closure alone, so no Schreier generator is formed, and each
    level stores, as in either build, each strong generator with its
    inverse, and only the inverse transversal its sift reads.  Each orbit
    lies in the basic orbit of the true point stabilizer, so the returned
    chain's order() is a lower bound on |<gens>|.  The build stops when it
    reaches `order`, or after QUIET_DRAWS quiet draws in a row (the comment
    there says why each level's group must contain the next level's), and
    raises ConsistencyError when it passes `order`.  When the caller has
    shown |<gens>| <= order, reaching it makes the chain a complete BSGS
    (Seress, Permutation Group Algorithms, 2003, ch. 4).  Its levels keep
    no orbit maps for Schreier generators to read, so extend() refuses it.
    """
    b = Bsgs(g.degree)
    if order is not None:
        b._fill(g.generators, order)
        return b
    for gen in g.generators:
        b.extend(gen)
    return b


# ---------------------------------------------------------------------------
# permutation groups


class PermGroup:
    """A permutation group on {0..m-1} given by generators.

    `order`, when the caller knows it, goes to bsgs_build (see there for
    what the caller must have shown); bsgs() raises when the chain falls short.
    """

    def __init__(self, degree: int, generators, order: int | None = None):
        generators = tuple(generators)
        if not generators:
            generators = (Permutation.identity(degree),)
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("generator degree differs from group degree")
        self.degree = degree
        self.generators = generators
        self._known_order = order
        self._bsgs: Bsgs | None = None

    @classmethod
    def from_cycles(cls, degree: int, *cycle_texts: str) -> "PermGroup":
        return cls(degree, [parse_cycles(t, degree) for t in cycle_texts])

    def bsgs(self) -> Bsgs:
        if self._bsgs is None:
            chain = bsgs_build(self, self._known_order)
            if self._known_order is not None and chain.order() < self._known_order:
                raise ConsistencyError(f"a chain stalled at {chain.order()}, below the "
                                       f"claimed order {self._known_order}")
            self._bsgs = chain
        return self._bsgs

    def order(self) -> int:
        return self.bsgs().order()

    def contains(self, p: Permutation) -> bool:
        return self.bsgs().contains(p)

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a, b in combinations(self.generators, 2))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def cayley_walk(degree: int, gens):
    """Breadth-first walk of the Cayley graph of <gens> by right multiplication.

    Returns (elements, edges, tree): the elements in discovery order,
    identity first; edges[i][j] = index of elements[i] * gens[j]; and
    tree[t - 1] = i * len(gens) + j, the edge (i, j) that discovered
    element t >= 1.  Rows are walked in order, so tree increases, each
    tree edge leaves an earlier row, and it is the first edge into its
    element in row-major order.

    The walk holds every element of the group, so each caller sizes the
    group against its own budget before it walks.
    """
    ident = Permutation.identity(degree).raw
    raw_gens = [_table(s.raw) for s in gens]
    compose = _composer(degree)
    index = {ident: 0}
    order = [ident]
    edges: list[list[int]] = []
    tree: list[int] = []
    for e in order:  # grows while it is walked
        row = []
        for s in raw_gens:
            f = compose(e, s)
            j = index.get(f)
            if j is None:
                j = len(order)
                index[f] = j
                order.append(f)
                tree.append(len(edges) * len(raw_gens) + len(row))
            row.append(j)
        edges.append(row)
    return [Permutation._wrap(degree, e) for e in order], edges, tree


def _normal_closure(g: PermGroup, seeds) -> tuple[list[Permutation], Bsgs]:
    """Normal closure in g of the seed elements: (the seeds that grew its
    chain, which generate it; the chain, also extended by the others)."""
    chain = Bsgs(g.degree)
    closure_gens: list[Permutation] = []
    queue = deque(seeds)
    while queue:
        c = queue.popleft()
        if chain.extend(c):
            closure_gens.append(c)
            queue.extend(c.conj(s) for s in g.generators)
    return closure_gens, chain


def _commutators(gens) -> list[Permutation]:
    return [a.inverse() * b.inverse() * a * b for a, b in combinations(gens, 2)]


def derived_subgroup(g: PermGroup) -> PermGroup:
    """Normal closure of the generator commutators, as a PermGroup."""
    return PermGroup(g.degree, _normal_closure(g, _commutators(g.generators))[0])


def abelian_p_ranks(g: PermGroup, primes) -> dict[int, int]:
    """d_p(G/G') for several primes, read off one chain.

    With r the product of the distinct primes, the normal closure N of
    the generator commutators and the powers g_i^r is G'G^r.  For A =
    G/G' and squarefree r, G/N = A/A^r is the product over p of A_p/A_p^p,
    so d_p(G/G') = v_p(|G:N|).
    """
    primes = list(dict.fromkeys(primes))
    if any(prime_factorization(p) != {p: 1} for p in primes):
        raise ValueError("each p must be a prime")
    r = math.prod(primes)
    gens = g.generators
    seeds = _commutators(gens) + [s ** (r % s.order()) for s in gens]
    index, rem = divmod(g.order(), _normal_closure(g, seeds)[1].order())
    if rem:
        raise ConsistencyError("subgroup order does not divide group order")
    out: dict[int, int] = {}
    for p in primes:
        rank = 0
        while index % p == 0:
            index //= p
            rank += 1
        out[p] = rank
    if index != 1:
        raise ConsistencyError(f"index of G'G^r has a prime outside {primes}")
    return out
