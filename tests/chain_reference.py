"""Plain references built on stabilizer chains.

`ReferenceBsgs` is the library's Bsgs with every Schreier generator
sifted, also one its build has sifted before.  Each sift of a repeat
ends at the identity, so the library's chain must be this chain, level
for level.  `chain_lower_bound` is the oracle's lower bound with its
ranks read off the chain of G'G^r instead of the tree's local actions.
`reference_rattle` is the draw stream written with Permutation products,
which the library's `rattle` must reproduce draw for draw."""

import hashlib
import random

from wreathgen.permcore import (
    Bsgs,
    PermGroup,
    Permutation,
    abelian_p_ranks,
    prime_factorization,
)


class _NothingSifted(set):
    """A set of sifted generators that claims to hold none of them."""

    def __contains__(self, g):
        return False


class ReferenceBsgs(Bsgs):
    def _process(self, i, sifted):
        # Bsgs._process with a set of sifted generators that never skips one
        return super()._process(i, _NothingSifted())


def reference_build(g: PermGroup) -> ReferenceBsgs:
    chain = ReferenceBsgs(g.degree)
    for gen in g.generators:
        chain.extend(gen)
    return chain


def chain_digest(chain: Bsgs) -> str:
    """Everything a build keeps, hashed: the base; per level its orbit
    map and inverse transversal, in discovery order, and its strong
    generators; and the strong generators in insertion order."""
    data = (chain.base,
            [(list(lv.orbit.items()), list(lv.inv.items()), lv.gens) for lv in chain._levels],
            chain._strong)
    return hashlib.sha256(repr(data).encode()).hexdigest()


def chain_lower_bound(g: PermGroup) -> tuple[int, str]:
    """The largest p-rank of g's abelianization (`abelian_p_ranks`), or 2
    when that is below 2 and g is not abelian: `oracle.d_lower_bound`'s
    rule on a group given without its tower."""
    d_ab = max(abelian_p_ranks(g, prime_factorization(g.order())).values(), default=0)
    if d_ab < 2 and not g.is_abelian():
        return 2, "noncyclic"
    return d_ab, "abelianization"


def reference_rattle(gens, rng: random.Random, degree: int):
    """Seeded product-replacement state on gens; returns a function that
    draws well-mixed elements of <gens>."""
    slots = list(gens) * 2 + [Permutation.identity(degree)]
    acc = Permutation.identity(degree)
    for _ in range(len(slots) * 10):
        i, j = rng.randrange(len(slots)), rng.randrange(len(slots))
        if i != j:
            slots[i] = slots[i] * slots[j]
            acc = acc * slots[i]

    def draw() -> Permutation:
        nonlocal acc
        for _ in range(3):
            i, j = rng.randrange(len(slots)), rng.randrange(len(slots))
            if i != j:
                slots[i] = slots[i] * slots[j]
                acc = acc * slots[i]
        return acc

    return draw
