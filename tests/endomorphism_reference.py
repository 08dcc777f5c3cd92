"""Plain reference for End_G(M): the k^2 unknowns F[a, b] of a matrix F
that commutes with every action matrix, eliminated as one system.  The
library reaches the same dimension from a spinning basis with r k
unknowns."""

import numpy as np

from wreathgen.modfp import FpModule, RowSpace


def endomorphism_dim(m: FpModule) -> int:
    """F_p-dimension of the algebra of matrices commuting with the action."""
    k = m.dim
    eye = np.eye(k, dtype=np.int64)
    # (A F - F A)[i, j] = 0 over unknowns F[a, b] at slot a*k+b: row i*k+j
    # of kron(A, I) - kron(I, A^T); entries lie in (-p, p)
    mats = [np.array(a, dtype=np.int64) % m.p for a in m.mats]
    eqs = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in mats])
    return k * k - RowSpace.span(eqs.tolist(), m.p).dim
