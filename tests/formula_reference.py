"""Plain reference for the closed-form path: every call parses each token
with the regular expression and factors each cyclic degree again, with no
per-token facts kept between calls, and the top level's rule is written
out by kind here rather than read from the library.  The library must
agree with it on values, and on the type and message of every error."""

import re

from wreathgen.formula import CyclicTopError
from wreathgen.permcore import ParseError, prime_factorization
from wreathgen.wreath import GroupSpec, TowerSpec


def parse_tower(text: str) -> TowerSpec:
    if not re.match(r"^[ASC0-9;]+$", text):
        raise ParseError(f"bad tower text {text!r}")
    parts = text.split(";")
    if any(not p for p in parts):
        raise ParseError(f"empty level in tower text {text!r}")
    levels = []
    for token in parts:
        m = re.match(r"^([ASC])([0-9]+)$", token)
        if not m:
            raise ParseError(f"bad group token {token!r}; expected A<n>, S<n> or C<n>")
        levels.append(GroupSpec(m.group(1), int(m.group(2))))
    return TowerSpec(tuple(levels))


def counting_profile(levels) -> tuple[int, int, dict[int, int]]:
    """(a4, s, c) of the given levels."""
    a4 = s = 0
    c: dict[int, int] = {}
    for g in levels:
        if g.kind == "A" and g.n == 4:
            a4 += 1
        elif g.kind == "S":
            s += 1
        elif g.kind == "C":
            for p in prime_factorization(g.n):
                c[p] = c.get(p, 0) + 1
    return a4, s, c


def abelianization(levels) -> dict[int, int]:
    """Nonzero p-ranks: c_p, plus s at p = 2 and a_4 at p = 3."""
    a4, s, c = counting_profile(levels)
    ranks = {**c, 2: c.get(2, 0) + s, 3: c.get(3, 0) + a4}
    return {p: r for p, r in sorted(ranks.items()) if r}


def d_tower(t: TowerSpec) -> tuple[int, str, dict[int, int]]:
    """(d, case, abelianization of levels 2..k)."""
    g1 = t.levels[0]
    if t.k == 1:
        return (1 if g1.kind == "C" else 2), "SingleLevel", {}
    a = abelianization(t.levels[1:])
    d_a = max(a.values(), default=0)
    if (g1.kind, g1.n) == ("A", 4):
        case, d = "A4", max(2, d_a, a.get(3, 0) + 1)
    elif g1.kind == "A":
        case, d = "An", max(2, d_a)
    elif g1.kind == "S":
        case, d = "Sn", max(2, d_a, a.get(2, 0) + 1)
    else:
        case, d = "Cyclic", d_a + 1
    return max(2, d), case, a


def d_corollary(t: TowerSpec) -> int:
    if t.k < 2:
        raise ValueError("the counting form needs k >= 2")
    if t.levels[0].kind == "C":
        raise CyclicTopError("the counting form requires a non-cyclic top level")
    a4, s, c = counting_profile(t.levels)
    return max(2, c.get(2, 0) + s, c.get(3, 0) + a4, max(c.values(), default=0))
