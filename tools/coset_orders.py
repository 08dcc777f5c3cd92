"""Coset enumeration of `modfp.presentation`: the group each presentation
defines must have the order of the group it is written for.

    PYTHONPATH=src python3 tools/coset_orders.py 6 7

For each n given, sympy's `FpGroup.order()` (Todd-Coxeter) enumerates the
cosets of the trivial subgroup in the presented S_n and, for n >= 4, A_n.
One line per group gives the order found and the seconds taken; the exit
status is 1 if any order differs from n! or n!/2.  On a 2-core host n = 6
took about 4 s and n = 7 about 100 s.
"""

from __future__ import annotations

import sys
import time
from functools import reduce

from sympy.combinatorics.fp_groups import FpGroup
from sympy.combinatorics.free_groups import free_group

from wreathgen.modfp import presentation
from wreathgen.wreath import GroupSpec


def presented_order(spec: GroupSpec) -> int:
    """The order of the group presentation(spec) defines, by coset enumeration."""
    letters, relators = presentation(spec)
    free, *gens = free_group(",".join(f"x{i}" for i in range(len(letters))))

    def word(w):
        return reduce(lambda acc, x: acc * (gens[x] if x >= 0 else gens[~x] ** -1),
                      w, free.identity)

    return FpGroup(free, [word(w) for w in relators]).order()


def main(argv=None) -> int:
    wrong = 0
    for n in map(int, sys.argv[1:] if argv is None else argv):
        for spec in [GroupSpec("S", n)] + ([GroupSpec("A", n)] if n >= 4 else []):
            start = time.perf_counter()
            order = presented_order(spec)
            ok = order == spec.order()
            wrong += not ok
            print(f"{spec.token()}: {order} {'ok' if ok else f'!= {spec.order()}'}, "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
