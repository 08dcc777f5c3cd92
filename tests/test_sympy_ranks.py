"""abelian_p_ranks against a second implementation: sympy's own
Schreier-Sims and abelian invariants, run on the same tower generators.
"""

from __future__ import annotations

import pytest
from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup

from wreathgen.permcore import abelian_p_ranks, prime_factorization
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
