"""Plain reference for Schreier-Sims: the library's Bsgs with every
Schreier generator sifted, also one its build has sifted before.  Each
sift of a repeat ends at the identity, so the library's chain must be
this chain, record for record."""

import hashlib
from itertools import repeat

from wreathgen.permcore import Bsgs, PermGroup, _invert


class ReferenceBsgs(Bsgs):
    def _process(self, i, sifted):
        # Bsgs._process without the set of sifted generators: `sifted` is
        # never read
        lv = self._levels[i]
        gens, orbit, inv, pending = lv.gens, lv.orbit, lv.inv, lv.pending
        below = self._sifts[i + 1:]
        top = len(self._levels)
        compose = self._compose
        while pending:
            pt, gi = pending.popleft()
            s = gens[gi]
            q = s[pt]
            w = compose(orbit[pt], s)
            uq = orbit.get(q)
            if uq is None:
                orbit[q] = w
                inv[q] = _invert(w)
                self._defs.append((i, pt, gi))
                pending.extend(zip(repeat(q), range(len(gens))))
                continue
            if w == uq:
                continue
            g = compose(w, inv[q])
            for m, point, low_inv in below:
                image = g[point]
                if image != point:
                    u = low_inv.get(image)
                    if u is None:
                        break
                    g = compose(g, u)
            else:
                if g == self._ident:
                    continue
                m = top
            self._defs.append((i, pt, gi, m))
            self._insert(g, i + 1, m)
            return m
        return None


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
