"""Linear algebra over F_p for permutation modules.

Row vectors carry a right action: a permutation g acts by the 0/1 matrix
P_g with P_g[a, g(a)] = 1, so P_{gh} = P_g P_h.  The module of interest
is the kernel I_p of the coordinate sum inside V = F_p^n; this file
verifies its structure by exhaustive spinning, computes endomorphism
dimensions from a spinning basis and fixed-point dimensions, and counts
1-cocycles from a presentation out of the literature (`presentation`):
the derivation law carried along each relator, one set of equations per
relator, so no element other than the letters is formed.  Vectors and
matrices are lists of Python ints, exact at every p; every product runs
through one sparse row product (`_times`), and every elimination through
one reduction step (`RowSpace._reduce`).

The exhaustive check spins every vector of the class it checks, but each
spin stops at the first vector it reaches that an earlier spin of the
scan has already shown to generate everything: a submodule that holds w
holds spin(w).  Besides each generator image, the spin tests the last
row of the basis it has built, which has the most leading zeros and so
comes early in the scan's order; in the scans the tests pin, only the
first vector of the class spins to the end.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import asdict, dataclass
from functools import cache, cached_property

from .permcore import (BadInput, BudgetExceeded, ConsistencyError, PermGroup,
                       Permutation, prime_factorization)
from .wreath import GroupSpec, standard_generators


class RowSpace:
    """A subspace of F_p^width kept in reduced row echelon form, the one
    F_p elimination here (endomorphism_dim sifts through it too).

    The basis is held sparse, pivot -> {column: value}: 1 at the pivot,
    no entry at the other pivots and none that is 0 mod p.  One reduction
    step (_reduce) serves contains() and insert(); insert() then scales
    the residue to 1 at its pivot and clears that column from the other
    rows (_add), so the basis stays canonical, and span() inserts a whole
    matrix row by row.  `pivots`, ascending, and `rows`, the same basis as
    lists of Python ints, are the canonical view.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.pivots: list[int] = []
        self._rows: dict[int, dict[int, int]] = {}

    @classmethod
    def span(cls, matrix, p: int) -> "RowSpace":
        """The row space of a sequence of rows."""
        space = cls(p, len(matrix[0]) if len(matrix) else 0)
        for v in matrix:
            space.insert(v)
        return space

    @classmethod
    @cache
    def whole(cls, p: int, width: int) -> "RowSpace":
        """All of F_p^width: the identity rows, the canonical basis that
        every spanning set reduces to.  One instance per (cls, p, width)
        is shared: insert() reduces every vector to 0 and changes nothing,
        and no caller changes its rows."""
        space = cls(p, width)
        space.pivots = list(range(width))
        space._rows = {i: {i: 1} for i in space.pivots}
        return space

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list[int]]:
        return [_dense(self._rows[piv].items(), self.width) for piv in self.pivots]

    def _reduce(self, v) -> dict[int, int]:
        """v mod p, cleared at every pivot by subtracting multiples of the
        rows there, as its nonzero entries."""
        p, rows = self.p, self._rows
        v = {j: r for j, x in enumerate(v) if x and (r := x % p)}
        for piv in rows.keys() & v.keys():
            _subtract(v, v[piv], rows[piv], p)
        return v

    def _add(self, v: dict[int, int]) -> None:
        """Join v, reduced and nonzero, to the basis at its leading column."""
        p = self.p
        lead = min(v)
        if v[lead] != 1:
            inv = pow(v[lead], -1, p)
            v = {j: x * inv % p for j, x in v.items()}
        for row in self._rows.values():
            if lead in row:
                _subtract(row, row[lead], v, p)
        self._rows[lead] = v
        insort(self.pivots, lead)

    def contains(self, v) -> bool:
        return not self._reduce(v)

    def insert(self, v) -> bool:
        v = self._reduce(v)
        if v:
            self._add(v)
        return bool(v)


def _subtract(v: dict[int, int], c: int, row: dict[int, int], p: int) -> None:
    """v -= c * row mod p, in place, dropping the entries that vanish."""
    for j, y in row.items():
        x = (v.get(j, 0) - c * y) % p
        if x:
            v[j] = x
        else:
            del v[j]


def _times(v, terms, p: int) -> list[tuple[int, int]]:
    """The terms of v M mod p, for v and M given as terms: the sum of x *
    (row i of M) over the (i, x) of v.  Every product of matrices in this
    file is taken here, a row at a time."""
    if len(v) == 1 and v[0][1] == 1:
        return terms[v[0][0]]  # a row of a permutation matrix picks a row
    out: dict[int, int] = {}
    for i, x in v:
        for j, c in terms[i]:
            out[j] = out.get(j, 0) + x * c
    return [(j, r) for j, c in out.items() if (r := c % p)]


def _dense(terms, width: int) -> list[int]:
    """The row of that width whose nonzero entries are `terms`."""
    row = [0] * width
    for j, x in terms:
        row[j] = x
    return row


def perm_matrix(g: Permutation) -> list[list[int]]:
    rows = [[0] * g.degree for _ in range(g.degree)]
    for a, row in enumerate(rows):
        row[g(a)] = 1
    return rows


@dataclass
class FpModule:
    """An F_p[G]-module: action matrices, as lists of rows, parallel to the
    group's generators.  Raises BadInput unless p is a prime below 2^31."""

    p: int
    dim: int
    mats: list[list[list[int]]]

    def __post_init__(self):
        _require_prime(self.p)

    @classmethod
    def natural(cls, group: PermGroup, p: int) -> "FpModule":
        return cls(p, group.degree, [perm_matrix(g) for g in group.generators])

    @cached_property
    def _row_terms(self) -> list[list[list[tuple[int, int]]]]:
        """Per generator, the terms of its matrix mod p: each row's nonzero
        entries (j, x), the form _times takes vectors and matrices in."""
        p = self.p
        return [[[(j, r) for j, x in enumerate(row) if (r := x % p)] for row in a]
                for a in self.mats]

    def restricted(self, sub: RowSpace) -> "FpModule":
        """The action on an invariant subspace, in coordinates of its RREF
        basis (a vector's coordinates are its entries at the pivots)."""
        basis = [[(j, x) for j, x in enumerate(row) if x] for row in sub.rows]

        def coords(b, terms):
            image = _dense(_times(b, terms, self.p), self.dim)
            return [image[c] for c in sub.pivots]

        return FpModule(self.p, sub.dim,
                        [[coords(b, terms) for b in basis] for terms in self._row_terms])


def aug_submodule(m: FpModule) -> RowSpace:
    """The coordinate-sum kernel, dimension n-1, written down in reduced
    row echelon form: the rows e_i - e_{n-1}, pivots 0..n-2."""
    n, p = m.dim, m.p
    space = RowSpace(p, n)
    space.pivots = list(range(n - 1))
    space._rows = {i: {i: 1, n - 1: p - 1} for i in space.pivots}
    return space


def spin(m: FpModule, seeds, known=None) -> RowSpace:
    """Smallest submodule containing the seed vectors.

    Worklist spinning, as in the MeatAxe: the rows the seeds span and
    every image that enters the space are queued, and each generator is
    applied to each of them once.  The queued vectors span the space, so
    once the queue is empty the space is closed under the action; a space
    that is already everything is closed at once.

    `known`, when given, is a stop rule: a predicate on vectors reduced
    mod p that may hold only for vectors whose spin is all of m.  Once a
    seed, a generator image or the last basis row (the one with the last
    pivot) satisfies it, the spin returns the whole space, whose rows and
    pivots are those a full spin reaches.  This is sound because spin(v)
    contains spin(w) for every w in the space it has built.
    """
    p = m.p
    dim = m.dim
    row_terms = m._row_terms
    seeds = [[x % p for x in s] for s in seeds]
    if known is not None and any(map(known, seeds)):
        return RowSpace.whole(p, dim)
    space = RowSpace(p, dim)
    for v in seeds:
        space.insert(v)
    queue = [list(row.items()) for row in space._rows.values()]
    while queue and space.dim < dim:
        v = queue.pop()
        for terms in row_terms:
            img = _times(v, terms, p)
            w = _dense(img, dim)
            if known is not None and known(w):
                return RowSpace.whole(p, dim)
            if space.insert(w):
                queue.append(img)
                last = space._rows[space.pivots[-1]].items()
                if known is not None and known(_dense(last, dim)):
                    return RowSpace.whole(p, dim)
    return space


def fixed_points(m: FpModule) -> int:
    """Dimension of the joint fixed space: the kernel of v -> (v (a - 1))
    over the action matrices a."""
    rows = [[x - (i == j) for a in m.mats for j, x in enumerate(a[i])] for i in range(m.dim)]
    return m.dim - RowSpace.span(rows, m.p).dim


def endomorphism_dim(m: FpModule) -> int:
    """F_p-dimension of the algebra of matrices commuting with the action,
    from a spinning basis, as the MeatAxe computes it (Holt and Rees,
    J. Austral. Math. Soc. A 57, 1994).

    The unit vectors e_0, e_1, .. are the seeds; each one outside the span
    so far joins the basis and is spun.  An image b g outside the span is
    the next basis vector b' (a tree edge); one inside it is a relation
    b g + sum_j t_j b_j = 0.  The basis is kept as the rows [b_j | e_j]
    of one RowSpace of width 2k, whose pivots all lie left of column k,
    so [v | 0] reduces to [0 | t] exactly when v + sum_j t_j b_j = 0.  An
    endomorphism phi is fixed by its values x_s on the r seeds, so there
    are r k unknowns: phi(b) = x Psi_b, with Psi_b' = Psi_b A_g along the
    tree, and each relation gives the k equations
    x (Psi_b A_g + sum_j t_j Psi_j) = 0, of which those that vanish mod p
    are dropped.
    """
    k, p = m.dim, m.p
    space = RowSpace(p, 2 * k)
    basis: list[list[tuple[int, int]]] = []  # as terms (see _times)
    tree: list[tuple[int, int]] = []  # (parent, generator), or (-1, seed number)
    relations: list[tuple[int, int, list[tuple[int, int]]]] = []  # (b, generator, t)

    def sift(v: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
        """None once v has joined the basis, else the t with
        v + sum_j t_j b_j = 0."""
        r = space._reduce(_dense(v, 2 * k))
        if min(r, default=k) >= k:
            return [(j - k, x) for j, x in r.items()]
        r[k + len(basis)] = 1  # [v | e_new] less a combination of the rows
        space._add(r)
        basis.append(v)
        return None

    seeds = 0
    for i in range(k):
        if len(basis) == k:
            break
        if sift([(i, 1)]) is not None:
            continue
        tree.append((-1, seeds))
        seeds += 1
        # the queue: the basis vectors from this seed on; a basis has at
        # most k vectors
        for b in range(len(basis) - 1, k):
            if b == len(basis):
                break
            for g, terms in enumerate(m._row_terms):
                t = sift(_times(basis[b], terms, p))
                if t is None:
                    tree.append((b, g))
                else:
                    relations.append((b, g, t))
    unknowns = seeds * k
    terms = m._row_terms
    # psi[b] is Psi_b, one row of terms per unknown
    psi: list[list[list[tuple[int, int]]]] = []
    for parent, g in tree:
        if parent < 0:
            psi.append([[(u - g * k, 1)] if 0 <= u - g * k < k else [] for u in range(unknowns)])
        else:
            psi.append([_times(row, terms[g], p) for row in psi[parent]])
    eqs = []
    for b, g, t in relations:
        # eq[c][u]: entry (u, c) of Psi_b A_g + sum_j t_j Psi_j
        eq = [[0] * unknowns for _ in range(k)]
        for u in range(unknowns):
            for c, x in _times(psi[b][u], terms[g], p) + _times(t, [ps[u] for ps in psi], p):
                eq[c][u] = (eq[c][u] + x) % p
        eqs += filter(any, eq)
    return unknowns - RowSpace.span(eqs, p).dim


@dataclass
class IpReport:
    """Outcome of the exhaustive structure check of I_p inside F_p^n."""

    n: int
    p: int
    dim_Ip: int
    p_divides_n: bool
    status: str  # "verified" | "unverified"
    checked_vectors: int
    unique_maximal: bool | None = None
    direct_sum: bool | None = None
    irreducible: bool | None = None
    end_dim: int | None = None
    r: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


# check_Ip_structure spins at most this many vectors, which does not bound
# its seconds.  The largest inputs it admits took, on a loaded 2-core host,
# 3.0 s for (7,7), whose 705,894 vectors mostly stop on their seed, and 20 s
# for (21,2), whose 2^20 - 1 vectors all have leading entry 1 and each spin
# a few images in dimension 20.
VECTOR_BUDGET = 2 ** 20
# bytes cohomology_of_Ip may build, counted by cocycle_bytes from the
# degree alone, before anything is built.  It admits A4-A78, S3-S78 and
# C2-C78, each counted at 16.5 MB.  Their tracemalloc peaks are at most
# 5.2 MB at p = 2 and 2^31 - 1, and `cohom` on each took under 0.7 s at
# 22 MB max RSS as a process on a 2-core host
EQUATION_BUDGET = 2 ** 24


def alt_group(n: int) -> PermGroup:
    return PermGroup(n, standard_generators(GroupSpec("A", n)))


def _require_prime(p: int) -> None:
    """Raise BadInput unless p is a prime below 2^31, a bound that keeps the
    trial division short."""
    if p >= 2 ** 31:
        raise BadInput("p must be below 2^31")
    if prime_factorization(p) != {p: 1}:
        raise BadInput("p must be prime")


def _scan(m: FpModule, in_class) -> tuple[int, bool]:
    """Spin each vector of F_p^dim that `in_class` accepts, in
    itertools.product order, up to the first that spins to less than m:
    (vectors spun, whether every one spun to m).

    Since the scan stops at a failure, a vector w of the class whose
    multiple with leading entry 1 came before v spins to everything, and so
    does v once its spin reaches w: spin(v) contains spin(w) = spin(c w).
    That is each spin's stop rule, tested on the seed, on each generator
    image and, after each insert, on the last basis row: it has leading
    entry 1 and pivots past every other row, so once the spin of v holds
    a row with a pivot past v's leading entry, that row comes before v.
    A vector whose leading entry is not 1 settles on its seed.
    """
    p = m.p

    def known(w: list[int]) -> bool:
        # w scaled to leading entry 1 comes before v exactly when its
        # leading entry lies past v's, or at v's when that is not 1, or
        # when the rest of it comes before the rest of v
        if any(w[:lead]):
            return False
        c = w[lead]
        if not c or v[lead] != 1:
            return in_class(w)  # both classes exclude 0
        if not in_class(w):
            return False
        rest = w[lead + 1:]
        if c != 1:
            inv = pow(c, -1, p)
            rest = [x * inv % p for x in rest]
        return tuple(rest) < v[lead + 1:]

    checked = 0
    for v in itertools.product(range(p), repeat=m.dim):
        if in_class(v):
            checked += 1
            lead = v.index(next(filter(None, v)))
            if spin(m, [v], known).dim != m.dim:
                return checked, False
    return checked, True


def check_Ip_structure(n: int, p: int) -> IpReport:
    """Exhaustively verify the submodule structure of I_p under Alt(n).

    p | n: every vector outside I_p (coordinate sum nonzero mod p) must
    spin to all of V (so I_p is the unique maximal submodule).  p does not
    divide n: V must split as I_p + constants, every nonzero vector of I_p
    must spin back to I_p (irreducibility), and the endomorphism algebra
    must be scalar.

    Over budget the report comes back "unverified" instead of sampling;
    n < 4 and a p that is not a prime below 2^31 raise BadInput.
    """
    if n < 4:
        raise BadInput("n must be at least 4")
    _require_prime(p)
    divides = n % p == 0
    # the budget depends on (n, p) alone, so it is checked before any
    # group or matrix of degree n is built; I_p has dimension n - 1.  Both
    # counts are at least 2^(n-1) - 1, over the budget once n - 1 passes
    # its bit length, which is decided before a slow p ** n is built
    if (n - 1 > VECTOR_BUDGET.bit_length()
            or (p ** n - p ** (n - 1) if divides else p ** (n - 1) - 1) > VECTOR_BUDGET):
        return IpReport(n, p, n - 1, divides, "unverified", 0)
    mod = FpModule.natural(alt_group(n), p)
    ip = aug_submodule(mod)
    if divides:
        checked, ok = _scan(mod, lambda w: sum(w) % p)
        return IpReport(n, p, ip.dim, True, "verified", checked, unique_maximal=ok)
    # spin inside I_p, in coordinates of its basis: a vector that spans
    # all of I_p stops its spin at once
    sub = mod.restricted(ip)
    checked, irr = _scan(sub, any)
    end = endomorphism_dim(sub)
    return IpReport(n, p, ip.dim, False, "verified", checked,
                    direct_sum=not ip.contains([1] * n) and ip.dim + 1 == n,
                    irreducible=irr, end_dim=end, r=(n - 1) if end == 1 else None)


@dataclass
class CohomReport:
    """Cocycle space dimensions for a module under a finite group."""

    p: int
    dim: int
    group_order: int
    dim_Z1: int
    dim_B1: int
    dim_H1: int
    dim_fixed: int
    end_dim: int
    r: int | None

    def to_json(self) -> dict:
        return asdict(self)


def cocycle_dims(g: PermGroup, m: FpModule, relators) -> CohomReport:
    """Dimensions of Z^1, B^1 and H^1 = Z^1/B^1 for the module m.

    `relators` are words in g.generators that present g (see
    `presentation`).  Images of the generators extend to a derivation
    exactly when its value vanishes on every relator.
    """
    if len(m.mats) != len(g.generators):
        raise ValueError("module action does not match the group's generators")
    k = m.dim
    constraints = RowSpace.span(_relator_equations(g, m, relators), m.p)
    dim_z1 = len(g.generators) * k - constraints.dim
    fixed = fixed_points(m)
    dim_b1 = k - fixed
    dim_h1 = dim_z1 - dim_b1
    if dim_h1 < 0:
        raise ConsistencyError("negative H^1 dimension; constraint system is wrong")
    end = endomorphism_dim(m)
    return CohomReport(m.p, k, g.order(), dim_z1, dim_b1, dim_h1,
                       fixed, end, k if end == 1 else None)


def presentation(spec: GroupSpec) -> tuple[tuple[Permutation, ...], list[list[int]]]:
    """(letters, relators) for the group `spec` in its natural action.

    A relator is a word in the letters, ~x for the inverse of letter x,
    multiplied left to right as in permcore.  S_n is Moore's presentation
    on s = (1 2) and t = (1 2 .. n): s^2, t^n, (st)^(n-1), (s t^-1 s t)^3
    and (s t^-j s t^j)^2 for 2 <= j <= n//2.  A_n (n >= 4) is Carmichael's
    on a = (1 2 3) and b = (3 4 .. n) for odd n, b = (1 2)(3 4 .. n) for
    even n: a^3, b^(n-2), (ab)^n for odd n or (ab)^(n-1) for even n, and
    (a^e b^-k a b^k)^2 for 1 <= k < n//2, e = -1 for odd k and even n,
    else 1 (Coxeter and Moser, Generators and Relations for Discrete
    Groups, 1957, ch. 6).  C_n is <t | t^n>.  In each, letters times
    relators is at most n + 6, which cocycle_bytes counts on.
    """
    n = spec.n
    t = Permutation(list(range(1, n)) + [0])
    if spec.kind == "C":
        return (t,), [[0] * n]
    if spec.kind == "S":
        relators = [[0] * 2, [1] * n, [0, 1] * (n - 1), [0, ~1, 0, 1] * 3]
        relators += [([0] + [~1] * j + [0] + [1] * j) * 2 for j in range(2, n // 2 + 1)]
        return (Permutation([1, 0] + list(range(2, n))), t), relators
    odd = n % 2
    a = Permutation([1, 2, 0] + list(range(3, n)))
    b = Permutation(([0, 1] if odd else [1, 0]) + list(range(3, n)) + [2])
    relators = [[0] * 3, [1] * (n - 2), [0, 1] * (n - 1 + odd)]
    relators += [([~0 if k % 2 and not odd else 0] + [~1] * k + [0] + [1] * k) * 2
                 for k in range(1, n // 2)]
    return (a, b), relators


def cohomology_of_Ip(spec: GroupSpec, p: int) -> CohomReport:
    """cocycle_dims for I_p under the group `spec` in its natural action.

    Raises BadInput unless p is a prime below 2^31, and BudgetExceeded,
    before anything is built, when cocycle_bytes(n - 1) passes
    EQUATION_BUDGET.

    Each relator is checked to be the identity on the letters, so
    <letters> is a quotient of the presented group, and the chain of
    <letters> built to |G| then shows it is all of G.  That the presented
    group has order |G| rests on the theorems `presentation` cites; the
    tests check it by coset enumeration for small n.  Were one of them
    wrong, some relator would be missing, and H^1 could come out too
    large, never too small.
    """
    _require_prime(p)
    n = spec.n
    need = cocycle_bytes(n - 1)
    if need > EQUATION_BUDGET:
        raise BudgetExceeded(f"cocycle equations may need {need} bytes, over the "
                             f"budget of {EQUATION_BUDGET}")
    letters, relators = presentation(spec)
    inverses = [x.inverse() for x in letters]
    for word in relators:
        value = Permutation.identity(n)
        for x in word:
            value = value * (letters[x] if x >= 0 else inverses[~x])
        if not value.is_identity():
            raise ConsistencyError(f"a relator of {spec.token()} is not the identity")
    g = PermGroup(n, letters, spec.order())
    mod = FpModule.natural(g, p)
    return cocycle_dims(g, mod.restricted(aug_submodule(mod)), relators)


def cocycle_bytes(k: int) -> int:
    """An upper bound, in bytes at 16 an entry (a pointer, plus a share of
    the residue's int object at a large p), on what cohomology_of_Ip
    builds for I_p of dimension k = n - 1.  It covers the dense action
    matrices; the relator equations, k rows of letters * k entries per
    relator, with letters times relators at most k + 7 (`presentation`);
    and End's rows and Psi blocks: e_0 - e_(n-1) spins to all of I_p under
    S_n, A_n and C_n, so End has one seed, at most k + 1 relations of k
    rows of k entries, and Psi rows of at most two terms."""
    return 32 * (k + 1) ** 2 * (k + 8)


def _relator_equations(g: PermGroup, mod: FpModule, relators) -> list[list[int]]:
    """k equations per relator, entries reduced mod p, in the ngens * k
    unknowns delta(gens[j])[a] at column j * k + a; those that vanish mod
    p are dropped.

    A relator w_1 .. w_m is evaluated from the right: with the suffix
    products S_t = M_{w_(t+1)} .. M_{w_m}, delta(w) = sum_t delta(w_t) S_t.
    Since delta(x^-1) = -delta(x) M_{x^-1}, the coefficient matrix of
    letter x gains S_t at each x and loses M_{x^-1} S_t = S_(t-1) at each
    x^-1.  Matrices are held as their rows' terms; for the permutation
    modules `cohomology_of_Ip` builds, S_t keeps at most two terms a row.
    """
    k, p = mod.dim, mod.p
    ngens = len(g.generators)
    # a letter's inverse acts by M^(ord - 1), so no matrix is inverted;
    # acts[x] is letter x's matrix and acts[~x] its inverse's
    inverses = []
    for x, terms in zip(g.generators, mod._row_terms):
        inv = terms
        for _ in range(x.order() - 2):
            inv = [_times(row, terms, p) for row in inv]
        inverses.append(inv)
    acts = mod._row_terms + inverses[::-1]
    eqs = []
    for word in relators:
        # coeffs[j][c][a]: the coefficient of delta(gens[j])[a] in equation c
        coeffs = [[[0] * k for _ in range(k)] for _ in range(ngens)]
        s = [[(i, 1)] for i in range(k)]
        for x in reversed(word):
            later, s = s, [_times(row, s, p) for row in acts[x]]
            j, sign, added = (x, 1, later) if x >= 0 else (~x, -1, s)
            for a, row in enumerate(added):
                for c, y in row:
                    coeffs[j][c][a] += sign * y
        eqs += filter(any, ([x % p for cj in coeffs for x in cj[c]] for c in range(k)))
    return eqs


def h_param(s: int, r: int) -> int:
    """floor((s - 1) / r) + 2, the level bound fed by s and the module size r."""
    if r < 1:
        raise ValueError("r must be a positive dimension")
    return (s - 1) // r + 2
