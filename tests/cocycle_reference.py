"""Plain references for the cocycle system.

`cocycle_system` finds the constraints on the generator images by walking
the Cayley graph of the whole group.  Each element
the walk reaches carries the affine form of its cocycle value, pushed along
the tree edge that discovered it, and every other edge constrains the
unknowns.  With all edges of the Cayley graph either defining or
constraining, the derivation law holds identically on the solution space.
The library's relator system must span the same constraints.  The arrays
hold int64 while a sum of k products below p^2 fits, and Python ints
(dtype=object) beyond, so the reference is exact at every p.

`relator_equations` and `cocycle_dims` evaluate relators over any module,
by matrix products: the suffix products through `_times`, and each
inverse letter's matrix as a power of the letter's.  The library writes
the same rows straight from permutations, on I_p alone."""

import numpy as np

import dense
from wreathgen import modfp
from wreathgen.modfp import CohomReport, FpModule, RowSpace, endomorphism_dim, fixed_points
from wreathgen.permcore import ConsistencyError, PermGroup, cayley_walk

# the constraint equations of this many edges are folded into the basis at
# once, which bounds the equations held at one time
EDGE_BLOCK = 256


def cocycle_system(g: PermGroup, mod: FpModule) -> tuple[RowSpace, int]:
    """The constraints on the generator images, and the group order the
    walk found."""
    k = mod.dim
    p = mod.p
    _, edges, tree = cayley_walk(g.degree, g.generators)
    ngens = len(g.generators)
    count = len(edges)
    dtype = np.int64 if (k + 1) * p * p < 2 ** 63 else object
    mats = np.array(dense.matrices(mod), dtype=dtype).reshape(ngens, k, k) % p
    eye = np.eye(k, dtype=np.int64).astype(dtype)
    # edge e = i * ngens + j leads from element i to target[e] = i * gens[j]
    target = np.array(edges, dtype=np.intp).reshape(-1)
    # the tree edge into element t defines its coefficients (the identity's
    # are zero); it leaves source[t] < t, and the sources do not decrease
    source, slot = np.divmod(np.array([0] + tree, dtype=np.intp), ngens)
    coeffs = np.zeros((count, ngens, k, k), dtype=dtype)

    def pushed(src, j):
        """Coefficients of delta(x * gens[j]) = delta(x) a_j + u_j, x at src."""
        cf = coeffs[src] @ mats[j][:, None]
        cf[np.arange(len(src)), j] += eye
        return cf

    done = 1
    while done < count:
        # the next elements whose sources already have their coefficients
        stop = done + int(np.searchsorted(source[done:], done))
        coeffs[done:stop] = pushed(source[done:stop], slot[done:stop]) % p
        done = stop
    # every other edge constrains the unknown generator images
    rest = np.ones(count * ngens, dtype=bool)
    rest[tree] = False
    rest = np.flatnonzero(rest)
    constraints = RowSpace(p, ngens * k)
    for lo in range(0, len(rest), EDGE_BLOCK):
        block = rest[lo:lo + EDGE_BLOCK]
        diff = (pushed(*np.divmod(block, ngens)) - coeffs[target[block]]) % p
        # one scalar equation per edge and module coordinate
        eqs = diff.transpose(0, 3, 1, 2).reshape(len(block) * k, ngens * k)
        for eq in eqs.tolist():
            constraints.insert(dense.to_terms(eq, p))
    return constraints, count


def relator_equations(g: PermGroup, mod: FpModule, relators) -> list[list[tuple[int, int]]]:
    """k equations per relator, as terms, in the ngens * k unknowns
    delta(gens[j])[a] at column j * k + a; those that vanish mod p are
    dropped.

    A relator w_1 .. w_m is evaluated from the right: with the suffix
    products S_t = M_{w_(t+1)} .. M_{w_m}, delta(w) = sum_t delta(w_t) S_t.
    Since delta(x^-1) = -delta(x) M_{x^-1}, the coefficient matrix of
    letter x gains S_t at each x and loses M_{x^-1} S_t = S_(t-1) at each
    x^-1.
    """
    k, p, times = mod.dim, mod.p, modfp._times
    # a letter's inverse acts by M^(ord - 1), so no matrix is inverted;
    # acts[x] is letter x's matrix and acts[~x] its inverse's
    inverses = []
    for x, terms in zip(g.generators, mod.terms):
        inv = terms
        for _ in range(x.order() - 2):
            inv = [times(row, terms, p) for row in inv]
        inverses.append(inv)
    acts = mod.terms + inverses[::-1]
    eqs = []
    for word in relators:
        # eq[c][j * k + a]: the coefficient of delta(gens[j])[a] in equation c
        eq: list[dict[int, int]] = [{} for _ in range(k)]
        s = [[(i, 1)] for i in range(k)]
        for x in reversed(word):
            later, s = s, [times(row, s, p) for row in acts[x]]
            j, sign, added = (x, 1, later) if x >= 0 else (~x, -1, s)
            for a, row in enumerate(added):
                col = j * k + a
                for c, y in row:
                    eq[c][col] = eq[c].get(col, 0) + sign * y
        eqs += modfp._equations(eq, p)
    return eqs


def cocycle_dims(g: PermGroup, mod: FpModule, relators) -> CohomReport:
    """modfp.cocycle_dims for any module of g, its action given per
    generator of g."""
    if len(mod.terms) != len(g.generators):
        raise ValueError("module action does not match the group's generators")
    k = mod.dim
    unknowns = len(g.generators) * k
    dim_z1 = unknowns - RowSpace.span(relator_equations(g, mod, relators), mod.p, unknowns).dim
    fixed = fixed_points(mod)
    dim_h1 = dim_z1 - (k - fixed)
    if dim_h1 < 0:
        raise ConsistencyError("negative H^1 dimension; constraint system is wrong")
    end = endomorphism_dim(mod)
    return CohomReport(mod.p, k, g.order(), dim_z1, k - fixed, dim_h1,
                       fixed, end, k if end == 1 else None)
