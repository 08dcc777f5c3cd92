"""Linear algebra over F_p for permutation modules.

Row vectors carry a right action: a permutation g acts by the 0/1 matrix
P_g with P_g[a, g(a)] = 1, so P_{gh} = P_g P_h.  The module of interest
is the kernel I_p of the coordinate sum inside V = F_p^n; this file
verifies its structure by exhaustive spinning, computes endomorphism
dimensions from a spinning basis and fixed-point dimensions, and counts
1-cocycles from a presentation out of the literature (`presentation`):
the derivation law carried along each relator, one set of equations per
relator, so no element other than the letters is formed.

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
from bisect import bisect
from dataclasses import asdict, dataclass
from functools import cache, cached_property

import numpy as np

from .permcore import (BadInput, BudgetExceeded, ConsistencyError, PermGroup,
                       Permutation, prime_factorization)
from .wreath import GroupSpec, standard_generators


class RowSpace:
    """A subspace of F_p^width kept in reduced row echelon form.

    Rows are lists of Python ints: at the widths spinning works in, a list
    comprehension per row costs less than numpy's overhead per call.
    insert() reduces the new vector, renormalizes, and eliminates the new
    pivot column from the old rows, so `rows` stays a canonical basis;
    span() reaches the same basis from a whole matrix at once.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @classmethod
    def span(cls, matrix, p: int) -> "RowSpace":
        """The row space of a 2-d matrix, by column-wise elimination that
        works on every row of the stack at once."""
        m = np.asarray(matrix, dtype=np.int64) % p
        space = cls(p, m.shape[1])
        r = 0
        for c in range(space.width):
            if r == len(m):
                break
            nz = np.flatnonzero(m[r:, c])
            if not nz.size:
                continue
            i = r + int(nz[0])
            if i != r:
                m[[r, i]] = m[[i, r]]
            lead = int(m[r, c])
            if lead != 1:
                m[r] = m[r] * pow(lead, -1, p) % p
            col = m[:, c].copy()
            col[r] = 0
            hit = np.flatnonzero(col)
            if hit.size:
                m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
            space.pivots.append(c)
            r += 1
        space.rows = m[:r].tolist()
        return space

    @classmethod
    @cache
    def whole(cls, p: int, width: int) -> "RowSpace":
        """All of F_p^width: the identity rows, the canonical basis that
        every spanning set reduces to.  One instance per (cls, p, width)
        is shared: insert() reduces every vector to 0 and changes nothing,
        and no caller changes its rows."""
        space = cls(p, width)
        zero = [0] * width
        space.rows = [zero.copy() for _ in range(width)]
        for i, row in enumerate(space.rows):
            row[i] = 1
        space.pivots = list(range(width))
        return space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> list[int]:
        p = self.p
        v = [int(x) % p for x in v]
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def insert(self, v) -> bool:
        v = self.reduce(v) if self.rows else [int(x) % self.p for x in v]
        for piv, lead in enumerate(v):
            if lead:
                break
        else:
            return False
        p = self.p
        if lead != 1:
            inv = pow(lead, -1, p)
            v = [x * inv % p for x in v]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = [(x - c * y) % p for x, y in zip(row, v)]
        pos = bisect(self.pivots, piv)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        return True

    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64).reshape(self.dim, self.width)


def perm_matrix(g: Permutation) -> np.ndarray:
    m = np.zeros((g.degree, g.degree), dtype=np.int64)
    for a in range(g.degree):
        m[a, g(a)] = 1
    return m


@dataclass
class FpModule:
    """An F_p[G]-module: action matrices parallel to the group's generators.
    Raises BadInput unless p is a prime below 2^31."""

    p: int
    dim: int
    mats: list[np.ndarray]

    def __post_init__(self):
        _require_prime(self.p)

    @classmethod
    def natural(cls, group: PermGroup, p: int) -> "FpModule":
        return cls(p, group.degree, [perm_matrix(g) for g in group.generators])

    @cached_property
    def _row_terms(self) -> list[list[list[tuple[int, int]]]]:
        """Per generator and row i, the nonzero entries (j, a[i, j]) of its
        matrix, so v a is a sum over the support of v."""
        return [[[(j, c) for j, c in enumerate(row) if c] for row in (a % self.p).tolist()]
                for a in self.mats]

    def restricted(self, sub: RowSpace) -> "FpModule":
        """The action on an invariant subspace, in coordinates of its RREF
        basis (a vector's coordinates are its entries at the pivots)."""
        b, p = sub.matrix(), self.p
        return FpModule(p, sub.dim, [_mul_mod(b, a[:, sub.pivots] % p, p) for a in self.mats])


def aug_submodule(m: FpModule) -> RowSpace:
    """The coordinate-sum kernel, dimension n-1, written down in reduced
    row echelon form: the rows e_i - e_{n-1}, pivots 0..n-2."""
    n, p = m.dim, m.p
    space = RowSpace(p, n)
    space.rows = [[int(j == i) for j in range(n - 1)] + [p - 1] for i in range(n - 1)]
    space.pivots = list(range(n - 1))
    return space


def spin(m: FpModule, seeds, known=None) -> RowSpace:
    """Smallest submodule containing the seed vectors.

    Worklist spinning, as in the MeatAxe: every vector that enters the
    space is queued, and each generator is applied to it once.  The queued
    vectors span the space, so once the queue is empty the space is closed
    under the action; a space that is already everything is closed at once.

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
    seeds = [[int(x) % p for x in s] for s in seeds]
    if known is not None and any(map(known, seeds)):
        return RowSpace.whole(p, dim)
    space = RowSpace(p, dim)
    queue = []
    for v in seeds:
        if space.insert(v):
            queue.append(v)
    while queue and space.dim < dim:
        support = [(i, x) for i, x in enumerate(queue.pop()) if x]
        for terms in row_terms:
            img = [0] * dim
            for i, x in support:
                for j, c in terms[i]:
                    img[j] += x * c
            if known is not None:
                img = [x % p for x in img]
                if known(img):
                    return RowSpace.whole(p, dim)
            if space.insert(img):
                queue.append(img)
                if known is not None and known(space.rows[-1]):
                    return RowSpace.whole(p, dim)
    return space


def fixed_points(m: FpModule) -> int:
    """Dimension of the joint fixed space."""
    eye = np.eye(m.dim, dtype=np.int64)
    stacked = np.hstack([a - eye for a in m.mats])
    return m.dim - RowSpace.span(stacked, m.p).dim


def endomorphism_dim(m: FpModule) -> int:
    """F_p-dimension of the algebra of matrices commuting with the action,
    from a spinning basis, as the MeatAxe computes it (Holt and Rees,
    J. Austral. Math. Soc. A 57, 1994).

    The unit vectors e_0, e_1, .. are the seeds; each one outside the span
    so far joins the basis and is spun.  An image b g outside the span is
    the next basis vector b' (a tree edge); one inside it is a relation
    b g + sum_j t_j b_j = 0, whose coefficients the elimination carries
    along.  An endomorphism phi is fixed by its values x_s on the r seeds,
    so there are r k unknowns: phi(b) = x Psi_b, with Psi_b' = Psi_b A_g
    along the tree, and each relation gives the k equations
    x (Psi_b A_g + sum_j t_j Psi_j) = 0.
    """
    k, p = m.dim, m.p
    basis: list[list[int]] = []
    tree: list[tuple[int, int]] = []  # (parent, generator), or (-1, seed number)
    relations: list[tuple[int, int, list[int]]] = []  # (b, generator, t)
    # the elimination: pivot and row [w | s], where w = sum_j s_j b_j
    rows: list[tuple[int, list[int]]] = []

    def sift(v: list[int]) -> list[int] | None:
        """None once v has joined the basis, else the t with
        v + sum_j t_j b_j = 0."""
        v = v + [0] * k  # [w | s] with w - sum_j s_j b_j = v
        for piv, row in rows:
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        w = v[:k]
        if not any(w):
            return v[k:]
        # w = b + sum_j s_j b_j for the new basis vector b
        v[k + len(rows)] = 1
        piv = w.index(next(filter(None, w)))
        inv = pow(w[piv], -1, p)
        rows.append((piv, [x * inv % p for x in v]))
        return None

    seeds = 0
    for i in range(k):
        if len(basis) == k:
            break
        e = [0] * k
        e[i] = 1
        if sift(e) is not None:
            continue
        basis.append(e)
        tree.append((-1, seeds))
        seeds += 1
        # the queue: the basis vectors from this seed on; a basis has at
        # most k vectors
        for b in range(len(basis) - 1, k):
            if b == len(basis):
                break
            support = [(a, x) for a, x in enumerate(basis[b]) if x]
            for g, terms in enumerate(m._row_terms):
                img = [0] * k
                for a, x in support:
                    for j, c in terms[a]:
                        img[j] += x * c
                img = [x % p for x in img]
                t = sift(img)
                if t is None:
                    basis.append(img)
                    tree.append((b, g))
                else:
                    relations.append((b, g, t))
    unknowns = seeds * k
    if not relations:
        return unknowns
    mats = np.array([a % p for a in m.mats])
    psi = np.zeros((k, unknowns, k), dtype=np.int64)
    for b, (parent, g) in enumerate(tree):
        if parent < 0:
            psi[b, g * k:(g + 1) * k] = np.eye(k, dtype=np.int64)
        else:
            psi[b] = _mul_mod(psi[parent], mats[g], p)
    bs, gs, ts = (np.array(col) for col in zip(*relations))
    eqs = _mul_mod(psi[bs], mats[gs], p)
    eqs += _mul_mod(ts, psi.reshape(k, -1), p).reshape(eqs.shape)
    # equation (relation, column c) has coefficient eqs[., u, c] at unknown u
    return unknowns - RowSpace.span(eqs.transpose(0, 2, 1).reshape(-1, unknowns), p).dim


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exactly, for int64 arrays with entries in [0, p) and
    p < 2^31.  A plain product sums terms up to (p - 1)^2, near 2^62, and
    overflows int64 once two such terms meet; unless the k terms of an
    entry fit, b is split into 16-bit halves and the inner dimension into
    blocks of 2^15, so no sum reaches 2^62 + 2^47 + 2^31."""
    k = b.shape[-2]
    if k * (p - 1) ** 2 < 2 ** 63:
        return a @ b % p
    lo, hi = b & 0xFFFF, b >> 16
    out = 0
    for s in range(0, k, 2 ** 15):
        part, block = a[..., s:s + 2 ** 15], (..., slice(s, s + 2 ** 15), slice(None))
        out = (out + ((part @ hi[block] % p) << 16) + part @ lo[block]) % p
    return out


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
# bytes of the arrays cocycle_dims may build (see cocycle_bytes), the one
# budget of the cocycle system, checked from the degree alone.  It admits
# A4-A32, S3-S32 (S32 is counted at 15.2 MB, and `cohom --group S32` took
# 0.3 s as a process and peaked at 30 MB on a 2-core host) and C2-C39,
# whose 38-dimensional I_p is counted at 16.7 MB and took 0.25 s at 29 MB
EQUATION_BUDGET = 2 ** 24


def alt_group(n: int) -> PermGroup:
    return PermGroup(n, standard_generators(GroupSpec("A", n)))


def _require_prime(p: int) -> None:
    """Raise BadInput unless p is a prime below 2^31: F_p arithmetic in
    numpy int64 needs p < 2^31, which also keeps the trial division short."""
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
    k = m.dim
    constraints, order = _cocycle_system(g, m, relators)
    dim_z1 = len(g.generators) * k - constraints.dim
    fixed = fixed_points(m)
    dim_b1 = k - fixed
    dim_h1 = dim_z1 - dim_b1
    if dim_h1 < 0:
        raise ConsistencyError("negative H^1 dimension; constraint system is wrong")
    end = endomorphism_dim(m)
    return CohomReport(m.p, k, order, dim_z1, dim_b1, dim_h1,
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
    Groups, 1957, ch. 6).  C_n is <t | t^n>.  _presentation_size counts
    them from n alone.
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


def _presentation_size(spec: GroupSpec) -> tuple[int, int]:
    """(letters, relators) counts of presentation(spec), from n alone."""
    if spec.kind == "C":
        return 1, 1
    return 2, spec.n // 2 + (3 if spec.kind == "S" else 2)


def cohomology_of_Ip(spec: GroupSpec, p: int) -> CohomReport:
    """cocycle_dims for I_p under the group `spec` in its natural action.

    Raises BadInput unless p is a prime below 2^31, and BudgetExceeded,
    before anything is built, when the arrays of the presentation's
    system would pass EQUATION_BUDGET.

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
    ngens, nrels = _presentation_size(spec)
    _require_equation_budget(cocycle_bytes(nrels, ngens, n - 1))
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


def cocycle_bytes(relators: int, ngens: int, k: int) -> int:
    """Bytes of the arrays cocycle_dims builds for a k-dimensional module of
    a group presented on ngens letters: the int64 store of the letters,
    each with the action matrix and the ngens coefficient matrices of
    itself and of its inverse; k int64 equations per relator; and k^4
    int64 entries per generator for endomorphism_dim.  That last term
    counted the commutation equations End was once solved from.  From a
    spinning basis with r seeds End builds r k^2 (ngens k + r) entries,
    about ngens k^3 for the r = 1 of I_p, so the term is now an upper
    bound, kept so that the groups admitted and the counts pinned do not
    move.  Temporaries take a small multiple of this."""
    return 16 * ngens * (ngens + 1) * k * k + 8 * relators * k * ngens * k + 8 * ngens * k ** 4


def _require_equation_budget(need: int) -> None:
    """Raise BudgetExceeded if cocycle arrays of `need` bytes pass EQUATION_BUDGET."""
    if need > EQUATION_BUDGET:
        raise BudgetExceeded(f"cocycle equations need at least {need} bytes, over the "
                             f"budget of {EQUATION_BUDGET}")


def _cocycle_system(g: PermGroup, mod: FpModule, relators) -> tuple[RowSpace, int]:
    """The constraints on the generator images, and the group order.

    Each letter carries its action matrix M and the coefficients C_j of
    its cocycle value, delta(x) = sum_j delta(gens[j]) C_j, for itself and
    for its inverse: a product has M = M_a M_b and C = C_a M_b + C_b, a
    letter's inverse acts by M^(ord - 1), so no matrix is inverted, and
    the cocycle value of each relator must vanish.
    """
    if len(mod.mats) != len(g.generators):
        raise ValueError("module action does not match the group's generators")
    k = mod.dim
    p = mod.p
    # entries are kept below p, so an entry of a product sums k products
    # below p^2, and one of C_a M_b + C_b adds one entry below p; that sum
    # must fit in int64
    if k * (p - 1) ** 2 + p - 1 >= 2 ** 63:
        raise BadInput(f"p = {p} is too large for a {k}-dimensional cocycle system")
    eqs = _relator_equations(g, mod, relators)
    return RowSpace.span(eqs, p), g.order()


def _relator_equations(g: PermGroup, mod: FpModule, relators) -> np.ndarray:
    """k equations per relator, in the ngens * k unknowns delta(gens[j])[a]
    at column j * k + a, reduced mod p."""
    k = mod.dim
    p = mod.p
    ngens = len(g.generators)
    # store[x, 0] is letter x as [M, C_0, .., C_{ngens-1}], store[x, 1] its inverse
    store = np.zeros((ngens, 2, ngens + 1, k, k), dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)
    for j, (x, a) in enumerate(zip(g.generators, mod.mats)):
        a = a % p
        inv = _matrix_power(a, x.order() - 1, p)
        store[j, 0, 0] = a
        store[j, 0, j + 1] = eye
        store[j, 1, 0] = inv
        store[j, 1, j + 1] = -inv % p  # delta(x^-1) = -delta(x) M_{x^-1}
    eqs = np.empty((len(relators), k, ngens * k), dtype=np.int64)
    for r, word in enumerate(relators):
        acc = store[word[0], 0] if word[0] >= 0 else store[~word[0], 1]
        for x in word[1:]:
            f = store[x, 0] if x >= 0 else store[~x, 1]
            acc = acc @ f[0]
            acc[1:] += f[1:]
            acc %= p
        # equation c: the sum over j and a of delta(gens[j])[a] C_j[a, c]
        eqs[r] = acc[1:].transpose(2, 0, 1).reshape(k, ngens * k)
    return eqs.reshape(-1, ngens * k)


def _matrix_power(a: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ a % p
        a = a @ a % p
        e >>= 1
    return out


def h_param(s: int, r: int) -> int:
    """floor((s - 1) / r) + 2, the level bound fed by s and the module size r."""
    if r < 1:
        raise ValueError("r must be a positive dimension")
    return (s - 1) // r + 2
