"""Linear algebra over F_p for permutation modules.

Row vectors carry a right action: a permutation g acts by the 0/1 matrix
P_g with P_g[a, g(a)] = 1, so P_{gh} = P_g P_h.  The module of interest
is the kernel I_p of the coordinate sum inside V = F_p^n; this file
verifies its structure by exhaustive spinning, computes endomorphism and
fixed-point dimensions, and counts 1-cocycles by propagating the
derivation law over a breadth-first enumeration of the group.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

import numpy as np

from .permcore import ConsistencyError, PermGroup, Permutation, cayley_walk
from .wreath import GroupSpec, standard_generators


class BudgetExceeded(RuntimeError):
    """An exhaustive check would overrun its enumeration budget."""


class NonScalarEndomorphism(RuntimeError):
    """The module's endomorphism algebra is larger than the scalars."""


def _reduce(v, p: int, pivots, rows) -> np.ndarray:
    """v reduced mod p against RREF rows with the given pivot columns."""
    v = np.asarray(v, dtype=np.int64) % p
    for piv, row in zip(pivots, rows):
        c = int(v[piv])
        if c:
            v = (v - c * row) % p
    return v


class RowSpace:
    """A subspace of F_p^width kept in reduced row echelon form.

    insert() reduces the new vector, renormalizes, and eliminates the new
    pivot column from the old rows, so `rows` stays a canonical basis.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> np.ndarray:
        return _reduce(v, self.p, self.pivots, self.rows)

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def insert(self, v) -> bool:
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if not nz.size:
            return False
        piv = int(nz[0])
        v = (v * pow(int(v[piv]), -1, self.p)) % self.p
        for i, row in enumerate(self.rows):
            c = int(row[piv])
            if c:
                self.rows[i] = (row - c * v) % self.p
        pos = bisect(self.pivots, piv)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        return True

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.width), dtype=np.int64)
        return np.array(self.rows, dtype=np.int64)


def perm_matrix(g: Permutation, p: int) -> np.ndarray:
    m = np.zeros((g.degree, g.degree), dtype=np.int64)
    for a in range(g.degree):
        m[a, g(a)] = 1
    return m % p


@dataclass
class FpModule:
    """An F_p[G]-module: action matrices parallel to the group's generators."""

    p: int
    dim: int
    mats: list[np.ndarray]
    group: PermGroup | None = None

    @classmethod
    def natural(cls, group: PermGroup, p: int) -> "FpModule":
        return cls(p, group.degree, [perm_matrix(g, p) for g in group.generators], group)

    @classmethod
    def trivial(cls, group: PermGroup, p: int) -> "FpModule":
        one = np.ones((1, 1), dtype=np.int64)
        return cls(p, 1, [one.copy() for _ in group.generators], group)

    def restricted(self, sub: "SubmoduleBasis") -> "FpModule":
        b = sub.matrix
        piv = list(sub.pivots)
        mats = [((b @ a) % self.p)[:, piv] for a in self.mats]
        return FpModule(self.p, sub.dim, mats, self.group)


@dataclass
class SubmoduleBasis:
    """A G-invariant subspace, held as an RREF basis of the parent module."""

    parent: FpModule
    matrix: np.ndarray
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, v) -> bool:
        return not _reduce(v, self.parent.p, self.pivots, self.matrix).any()


def _to_submodule(m: FpModule, space: RowSpace) -> SubmoduleBasis:
    return SubmoduleBasis(m, space.matrix(), tuple(space.pivots))


def aug_submodule(m: FpModule) -> SubmoduleBasis:
    """The coordinate-sum kernel, spanned by e_i - e_{i+1}; dimension n-1."""
    space = RowSpace(m.p, m.dim)
    for i in range(m.dim - 1):
        v = np.zeros(m.dim, dtype=np.int64)
        v[i], v[i + 1] = 1, -1
        space.insert(v)
    return _to_submodule(m, space)


def spin(m: FpModule, seeds) -> SubmoduleBasis:
    """Smallest submodule containing the seed vectors."""
    space = RowSpace(m.p, m.dim)
    for s in seeds:
        space.insert(np.asarray(s, dtype=np.int64))
    return _spin_closure(m, space)


def _spin_closure(m: FpModule, space: RowSpace) -> SubmoduleBasis:
    changed = True
    while changed:
        changed = False
        for a in m.mats:
            img = (space.matrix() @ a) % m.p
            for row in img:
                if space.insert(row):
                    changed = True
    return _to_submodule(m, space)


def fixed_points(m: FpModule, sub: SubmoduleBasis | None = None) -> int:
    """Dimension of the joint fixed space (restricted to `sub` if given)."""
    mod = m.restricted(sub) if sub is not None else m
    eye = np.eye(mod.dim, dtype=np.int64)
    space = RowSpace(mod.p, len(mod.mats) * mod.dim)
    stacked = np.hstack([(a - eye) % mod.p for a in mod.mats])
    for row in stacked:
        space.insert(row)
    return mod.dim - space.dim


def endomorphism_dim(m: FpModule | SubmoduleBasis) -> int:
    """F_p-dimension of the algebra of matrices commuting with the action."""
    mod = m.parent.restricted(m) if isinstance(m, SubmoduleBasis) else m
    k = mod.dim
    space = RowSpace(mod.p, k * k)
    for a in mod.mats:
        for i in range(k):
            for j in range(k):
                # (A F - F A)[i, j] = 0 over unknowns F[a, b] at slot a*k+b
                row = np.zeros(k * k, dtype=np.int64)
                row[j::k] += a[i, :]
                row[i * k: (i + 1) * k] -= a[:, j]
                space.insert(row)
    return k * k - space.dim


def require_scalar_end(m: FpModule | SubmoduleBasis) -> int:
    """Verify End = scalars and return the module's F_p-dimension as r."""
    mod = m.parent.restricted(m) if isinstance(m, SubmoduleBasis) else m
    e = endomorphism_dim(mod)
    if e != 1:
        raise NonScalarEndomorphism(f"endomorphism algebra has dimension {e}")
    return mod.dim


@dataclass
class IpReport:
    """Outcome of the exhaustive structure check of I_p inside F_p^n."""

    n: int
    p: int
    dim_ip: int
    p_divides_n: bool
    status: str  # "verified" | "unverified"
    checked_vectors: int
    unique_maximal: bool | None = None
    direct_sum: bool | None = None
    irreducible: bool | None = None
    end_dim: int | None = None
    r: int | None = None

    def to_json(self) -> dict:
        return {
            "n": self.n, "p": self.p, "dim_Ip": self.dim_ip,
            "p_divides_n": self.p_divides_n, "status": self.status,
            "checked_vectors": self.checked_vectors,
            "unique_maximal": self.unique_maximal, "direct_sum": self.direct_sum,
            "irreducible": self.irreducible, "end_dim": self.end_dim, "r": self.r,
        }


def alt_group(n: int) -> PermGroup:
    return PermGroup(n, standard_generators(GroupSpec("A", n)))


def check_Ip_structure(n: int, p: int, vector_budget: int = 2 ** 20) -> IpReport:
    """Exhaustively verify the submodule structure of I_p under Alt(n).

    p | n: every vector outside I_p must spin to all of V (so I_p is the
    unique maximal submodule).  p does not divide n: V must split as
    I_p + constants, every nonzero vector of I_p must spin back to I_p
    (irreducibility), and the endomorphism algebra must be scalar.

    Over budget the report comes back "unverified" instead of sampling.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    divides = n % p == 0
    # the budget depends on (n, p) alone, so it is checked before any
    # group or matrix of degree n is built; I_p has dimension n - 1
    total = p ** n - p ** (n - 1) if divides else p ** (n - 1) - 1
    if total > vector_budget:
        return IpReport(n, p, n - 1, divides, "unverified", 0)
    mod = FpModule.natural(alt_group(n), p)
    ip = aug_submodule(mod)

    if divides:
        checked = 0
        ok = True
        for vec in _all_vectors(p, n):
            if int(vec.sum()) % p == 0:
                continue
            checked += 1
            if spin(mod, [vec]).dim != n:
                ok = False
                break
        return IpReport(n, p, ip.dim, True, "verified", checked, unique_maximal=ok)

    direct = not ip.contains(np.ones(n, dtype=np.int64)) and ip.dim + 1 == n
    checked = 0
    irr = True
    basis = ip.matrix
    for coeff in _all_vectors(p, n - 1):
        if not coeff.any():
            continue
        checked += 1
        vec = (coeff @ basis) % p
        if spin(mod, [vec]).dim != n - 1:
            irr = False
            break
    end = endomorphism_dim(ip)
    return IpReport(n, p, ip.dim, False, "verified", checked,
                    direct_sum=direct, irreducible=irr, end_dim=end,
                    r=(n - 1) if end == 1 else None)


def _all_vectors(p: int, length: int):
    """All of F_p^length in lexicographic order (counting base p)."""
    vec = np.zeros(length, dtype=np.int64)
    yield vec.copy()
    total = p ** length
    for _ in range(total - 1):
        i = length - 1
        while True:
            vec[i] += 1
            if vec[i] < p:
                break
            vec[i] = 0
            i -= 1
        yield vec.copy()


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

    @property
    def s_component(self) -> int:
        return self.dim_H1

    def to_json(self) -> dict:
        return {
            "p": self.p, "dim": self.dim, "group_order": self.group_order,
            "dim_Z1": self.dim_Z1, "dim_B1": self.dim_B1, "dim_H1": self.dim_H1,
            "dim_fixed": self.dim_fixed, "end_dim": self.end_dim, "r": self.r,
        }


def cocycle_dims(g: PermGroup, m: FpModule | SubmoduleBasis,
                 element_budget: int = 20160) -> CohomReport:
    """Dimensions of Z^1, B^1 and H^1 = Z^1/B^1 for the module m.

    Each group element reached by the breadth-first walk carries the
    affine form of its cocycle value in terms of the unknown generator
    images; rediscovering an element yields linear constraints.  With all
    edges of the Cayley graph either defining or constraining, the
    derivation law delta(gh) = delta(g)h + delta(h) holds identically on
    the solution space.
    """
    mod = m.parent.restricted(m) if isinstance(m, SubmoduleBasis) else m
    system = _cocycle_system(g, mod, element_budget)
    k = mod.dim
    ngens = len(g.generators)
    dim_z1 = ngens * k - system.constraints.dim
    fixed = fixed_points(mod)
    dim_b1 = k - fixed
    dim_h1 = dim_z1 - dim_b1
    if dim_h1 < 0:
        raise RuntimeError("negative H^1 dimension; constraint system is wrong")
    end = endomorphism_dim(mod)
    return CohomReport(mod.p, k, system.count, dim_z1, dim_b1, dim_h1,
                       fixed, end, k if end == 1 else None)


@dataclass
class _CocycleSystem:
    constraints: RowSpace
    count: int  # group order found by the walk


def _cocycle_system(g: PermGroup, mod: FpModule, element_budget: int) -> _CocycleSystem:
    if len(mod.mats) != len(g.generators):
        raise ValueError("module action does not match the group's generators")
    try:
        _, edges = cayley_walk(g.degree, g.generators, element_budget)
    except ConsistencyError:
        raise BudgetExceeded(
            f"group enumeration exceeds budget {element_budget}") from None
    k = mod.dim
    ngens = len(g.generators)
    p = mod.p
    eye = np.eye(k, dtype=np.int64)
    coeffs: list[np.ndarray | None] = [None] * len(edges)
    coeffs[0] = np.zeros((ngens, k, k), dtype=np.int64)
    constraints = RowSpace(p, ngens * k)
    # in walk order an element's coefficients are set, by the edge that
    # discovered it, before its own row of edges is read
    for i, row in enumerate(edges):
        ce = coeffs[i]
        for j, (f, a) in enumerate(zip(row, mod.mats)):
            cf = (ce @ a) % p
            cf[j] = (cf[j] + eye) % p
            if coeffs[f] is None:
                coeffs[f] = cf
                continue
            diff = (cf - coeffs[f]) % p
            if diff.any():
                # one scalar equation per module coordinate
                for eq in diff.transpose(2, 0, 1).reshape(k, ngens * k):
                    constraints.insert(eq)
    return _CocycleSystem(constraints, len(edges))


def s_param(dp_abar: int, h1: int) -> int:
    """Generation parameter: trivial-factor rank plus the H^1 dimension."""
    if dp_abar < 0 or h1 < 0:
        raise ValueError("components must be nonnegative")
    return dp_abar + h1


def h_param(s: int, r: int) -> int:
    """floor((s - 1) / r) + 2, the level bound fed by s and the module size r."""
    if r < 1:
        raise ValueError("r must be a positive dimension")
    return (s - 1) // r + 2
