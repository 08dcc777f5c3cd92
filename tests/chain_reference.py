"""Plain reference for Schreier-Sims: the library's Bsgs with every
Schreier generator sifted, also one its build has sifted before.  Each
sift of a repeat ends at the identity, so the library's chain must be
this chain, record for record."""

import hashlib

from wreathgen.permcore import Bsgs, PermGroup


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
    """Everything a build records, hashed: the base; per level its orbit
    map and inverse transversal, in discovery order, and its strong
    generators; the strong generators in insertion order; `_defs` and
    `_calls`."""
    data = (chain.base,
            [(list(lv.orbit.items()), list(lv.inv.items()), lv.gens) for lv in chain._levels],
            chain._strong, chain._defs, chain._calls)
    return hashlib.sha256(repr(data).encode()).hexdigest()
