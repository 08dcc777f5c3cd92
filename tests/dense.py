"""Dense views of modfp's one sparse form, for tests and references.

`modfp` holds every vector and every matrix row as terms: the (column,
value) pairs of its nonzero entries, distinct columns, values in 1..p-1.
The tests state most expectations, and the references compute, on dense
rows of Python ints; every conversion between the two forms is made
here."""

from wreathgen.modfp import FpModule, RowSpace


def to_terms(row, p: int) -> list[tuple[int, int]]:
    """The terms of a dense row, its entries reduced mod p."""
    return [(j, r) for j, x in enumerate(row) if (r := int(x) % p)]


def to_dense(terms, width: int) -> list[int]:
    """The dense row of that width whose nonzero entries are `terms`."""
    row = [0] * width
    for j, x in terms:
        row[j] = x
    return row


def span(rows, p: int, width: int) -> RowSpace:
    """RowSpace.span of dense rows."""
    return RowSpace.span([to_terms(r, p) for r in rows], p, width)


def rows(space: RowSpace) -> list[list[int]]:
    """The space's basis, ascending by pivot, as dense rows."""
    return [to_dense(space._rows[piv].items(), space.width) for piv in space.pivots]


def matrices(mod: FpModule) -> list[list[list[int]]]:
    """The module's action matrices, one per generator, as dense rows."""
    return [[to_dense(r, mod.dim) for r in a] for a in mod.terms]


def module(p: int, dim: int, mats) -> FpModule:
    """The module whose action matrices are the dense `mats`."""
    return FpModule(p, dim, [[to_terms(r, p) for r in a] for a in mats])
