"""The chain and abelian_p_ranks against a second implementation:
sympy's own Schreier-Sims and abelian invariants, run on the same
generators.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup

from wreathgen import permcore
from wreathgen.permcore import PermGroup, Permutation, abelian_p_ranks, prime_factorization
from wreathgen.wreath import parse_tower, tower_generators, tower_group


@pytest.mark.parametrize("text", ["C3;C2;C2", "C6;C4", "C4;C2;C2", "C9;C3", "S3;C2;C2",
                                  "A4;C3", "C2;S4", "C3;C3;C2;C2"])
def test_abelian_p_ranks_match_sympy(text):
    t = parse_tower(text)
    gens = tower_generators(t)
    invariants = PermutationGroup(
        [SympyPermutation([g(x) for x in range(g.degree)]) for g in gens]).abelian_invariants()
    primes = sorted(set(prime_factorization(t.order())) | {2, 3, 5, 7})
    # the p-rank of an abelian group is the number of its invariants that
    # p divides, whether they are invariant factors or prime powers
    expected = {p: sum(1 for q in invariants if q % p == 0) for p in primes}
    assert abelian_p_ranks(tower_group(t), primes) == expected


# towers of 10 to 40 leaves, whose chains are deep and whose orbits are
# blocks of the tree
TOWERS = ["C2;C5", "C3;S4", "A4;C3", "C5;C2;C2", "S3;C2;C3", "C2;C2;C2;C2;C2",
          "C3;C3;C2;C2", "A5;C2", "C4;S3;C2", "C10;C4"]


@st.composite
def _wide_groups(draw):
    """Generators (as image tuples) of a group of degree 10 to 40: a
    tower's generators with the leaves relabelled, or one to three
    permutations that each move a drawn subset of the points."""
    if draw(st.booleans()):
        gens = tower_generators(parse_tower(draw(st.sampled_from(TOWERS))))
        n = gens[0].degree
        label = draw(st.permutations(range(n)))
        return [tuple(label[g(label.index(x))] for x in range(n)) for g in gens]
    n = draw(st.integers(10, 40))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        moved = draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
        images = list(range(n))
        for x, y in zip(moved, draw(st.permutations(moved))):
            images[x] = y
        gens.append(tuple(images))
    return gens


def _disagreements(gens, rng: random.Random) -> list:
    """Where the library's chain and sympy's answer differently on <gens>:
    "order", then each probe, a random word in the generators or a random
    permutation, whose membership they do not agree on."""
    n = len(gens[0])
    ours = PermGroup(n, [Permutation(g) for g in gens])
    theirs = PermutationGroup([SympyPermutation(list(g)) for g in gens])
    found = [] if ours.order() == theirs.order() else ["order"]
    for _ in range(16):
        word = tuple(range(n))
        for g in rng.choices(gens, k=2 * n):
            word = tuple(g[x] for x in word)
        for probe in (word, tuple(rng.sample(range(n), n))):
            if ours.contains(Permutation(probe)) != theirs.contains(SympyPermutation(list(probe))):
                found.append(probe)
    return found


@settings(max_examples=30, deadline=None)
@given(_wide_groups(), st.integers(0, 2 ** 32 - 1).map(random.Random))
def test_chain_agrees_with_sympy_past_enumeration(gens, rng):
    assert _disagreements(gens, rng) == []


def test_a_chain_that_drops_an_orbit_point_disagrees_with_sympy(monkeypatch):
    # the last point of the top level's orbit, with its transversal entry
    build = permcore.bsgs_build

    def dropped(g, order=None):
        chain = build(g, order)
        level = chain._levels[0]
        pt = next(reversed(level.orbit))
        del level.orbit[pt], level.inv[pt]
        return chain

    gens = [g.raw for g in tower_generators(parse_tower("C3;C2;C2"))]
    assert _disagreements(gens, random.Random(1)) == []
    monkeypatch.setattr(permcore, "bsgs_build", dropped)
    # the order always differs; a probe hits the dropped point with chance
    # 1/12, so three streams of probes are searched for one
    found = [_disagreements(gens, random.Random(seed)) for seed in (1, 2, 3)]
    assert all(f[0] == "order" for f in found) and any(len(f) > 1 for f in found)
