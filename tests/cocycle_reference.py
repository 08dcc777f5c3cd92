"""Plain reference for the cocycle system: the constraints on the generator
images found by walking the Cayley graph of the whole group.  Each element
the walk reaches carries the affine form of its cocycle value, pushed along
the tree edge that discovered it, and every other edge constrains the
unknowns.  With all edges of the Cayley graph either defining or
constraining, the derivation law holds identically on the solution space.
The library's relator system must span the same constraints.  The arrays
hold int64 while a sum of k products below p^2 fits, and Python ints
(dtype=object) beyond, so the reference is exact at every p."""

import numpy as np

from wreathgen.modfp import FpModule, RowSpace
from wreathgen.permcore import PermGroup, cayley_walk

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
    mats = np.array(mod.mats, dtype=dtype).reshape(ngens, k, k) % p
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
        constraints = RowSpace.span(constraints.rows + eqs.tolist(), p)
    return constraints, count
