"""Closed-form values, the reduction identity, and counting-form agreement.

Tower values marked below were derived by hand from the level
contribution table (and the larger ones are re-certified against the
brute-force oracle in the acceptance suite).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import formula_reference as ref
from wreathgen import wreath
from wreathgen.formula import (
    CyclicTopError,
    abelianization,
    counting_profile,
    d_corollary,
    d_tower,
)
from wreathgen.wreath import GroupSpec, TowerSpec, TrivialLevelError, parse_tower


def test_abelianization_contributions():
    levels = parse_tower("A5;C6;S4").levels
    assert abelianization(levels[1:]) == {2: 2, 3: 1}
    assert abelianization(levels) == {2: 2, 3: 1}  # A5 adds nothing
    assert abelianization(levels[2:]) == {2: 1}
    assert abelianization(()) == {}
    assert abelianization(parse_tower("A4;A4;C9").levels) == {3: 3}


def test_abelianization_counts_normalized_levels():
    # A3 and S2 contribute as C3 and C2
    assert abelianization(parse_tower("C2;A3;S2").levels) == {2: 2, 3: 1}


def test_d_tower_top_rule_on_one_tail():
    # levels 2..k are C6;C2, so A has p-ranks {2: 2, 3: 1} under every top
    for top, d in [("A4", 2), ("A7", 2), ("S3", 3), ("C5", 3)]:
        res = d_tower(parse_tower(f"{top};C6;C2"))
        assert (res.d, res.abelianization) == (d, {2: 2, 3: 1}), top
    # the cyclic top adds one to d(A); the non-cyclic one adds its own Z_p
    assert d_tower(parse_tower("C7;A5")).d == 2  # d(A) + 1 = 1, clamped
    assert d_tower(parse_tower("A4;A5")).d == 2
    assert d_tower(parse_tower("A4;C3;C3;C3")).d == 4


@pytest.mark.parametrize("text,d,case", [
    ("C6", 1, "SingleLevel"),
    ("S3", 2, "SingleLevel"),
    ("A3", 1, "SingleLevel"),  # normalizes to C3
    ("A5;C3;C2;C2", 2, "An"),
    ("C3;C2;C2", 3, "Cyclic"),
    ("S3;C2;C2", 3, "Sn"),
    ("S3;C2", 2, "Sn"),
    ("A4;C3", 2, "A4"),
    ("A4;C3;C3", 3, "A4"),
    ("C3;A4", 2, "Cyclic"),
    ("C2;S3", 2, "Cyclic"),
    ("C2;C2", 2, "Cyclic"),
    ("C2;C2;C2", 3, "Cyclic"),
    ("C2;C2;C2;C2", 4, "Cyclic"),
    ("A5;A5;A5", 2, "An"),
    ("S4;S4;S4", 3, "Sn"),
    ("S4;C2;C2;S4", 4, "Sn"),
])
def test_d_tower_values(text, d, case):
    res = d_tower(parse_tower(text))
    assert (res.d, res.case) == (d, case)


def test_d_tower_floor_of_two():
    for text in ("A5;A6", "A4;A5", "S3;A5", "C2;A5"):
        assert d_tower(parse_tower(text)).d == 2


def test_counting_profile():
    prof = counting_profile(parse_tower("S5;C2;C6;A4;S3"))
    assert (prof["a4"], prof["s"]) == (1, 2)
    assert prof["c"] == {2: 2, 3: 1}


def test_d_corollary_values():
    assert d_corollary(parse_tower("S5;C2;C6;A4;S3")) == 4
    assert d_corollary(parse_tower("A5;C3;C2;C2")) == 2
    assert d_corollary(parse_tower("S3;C2;C2")) == 3
    assert d_corollary(parse_tower("A4;C3;C3")) == 3
    with pytest.raises(CyclicTopError):
        d_corollary(parse_tower("C3;C2;C2"))
    with pytest.raises(CyclicTopError):
        d_corollary(parse_tower("A3;C2"))  # normalizes to cyclic top
    with pytest.raises(ValueError):
        d_corollary(parse_tower("S3"))


_POOL = ["A4", "A5", "S3", "S4", "S5", "C2", "C3", "C4", "C5", "C6"]


def test_reduction_identity_on_random_towers():
    rng = random.Random(2024)
    for _ in range(500):
        k = rng.randint(2, 8)
        t = parse_tower(";".join(rng.choice(_POOL) for _ in range(k)))
        res = d_tower(t)
        assert (res.d, res.case, res.abelianization) == ref.d_tower(t), t.text()


def test_monotonicity_in_tail():
    # appending levels below the top never lowers d
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(2, 6)
        levels = [rng.choice(_POOL) for _ in range(k)]
        t = parse_tower(";".join(levels))
        t_ext = parse_tower(";".join(levels + [rng.choice(_POOL)]))
        assert d_tower(t_ext).d >= d_tower(t).d


# --- the stored per-token facts against the plain reference ------------------

# degrees with several primes, prime powers, and large primes, next to the
# small ones the pool uses; n <= 2 makes trivial A and S levels
_DEGREES = st.one_of(
    st.integers(1, 12),
    st.sampled_from([30, 210, 2310, 30030, 64, 81, 1024, 9973, 10007 * 10009,
                     2 ** 31 - 1, 2 ** 5 * 3 ** 4 * 7]),
    st.integers(13, 10 ** 6),
)
_TOKENS = st.one_of(
    st.tuples(st.sampled_from("ASC"), _DEGREES).map(lambda kn: f"{kn[0]}{kn[1]}"),
    st.sampled_from(["A3", "S2", "A03", "C007", "C", "3C", "CC2", "X2", "c2", "S-3",
                     "C 2", ""]),
)


def _outcome(fn, *args):
    """The value, or the type and message of the error."""
    try:
        return "value", fn(*args)
    except Exception as e:  # every error must match, type and message
        return type(e), str(e)


def _profile_tuple(prof):
    return prof["a4"], prof["s"], prof["c"]


@settings(max_examples=400, deadline=None)
@given(st.lists(_TOKENS, min_size=1, max_size=6))
# non-cyclic tops whose own Z_p sets d: random tokens seldom meet them
@example(["A4", "C3", "A4"])
@example(["S5", "C2", "S3"])
def test_stored_facts_agree_with_the_plain_reference(tokens):
    text = ";".join(tokens)
    got = _outcome(parse_tower, text)
    assert got == _outcome(ref.parse_tower, text)
    if got[0] != "value":
        return
    t = got[1]
    res = d_tower(t)
    assert (res.d, res.case, res.abelianization) == ref.d_tower(t)
    assert _outcome(d_corollary, t) == _outcome(ref.d_corollary, t)
    assert _profile_tuple(counting_profile(t)) == ref.counting_profile(t.levels)
    for i in range(t.k + 1):
        assert abelianization(t.levels[i:]) == ref.abelianization(t.levels[i:])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ASC"), _DEGREES), min_size=1, max_size=5))
def test_towers_built_from_specs_read_the_same_facts(levels):
    # specs built directly, not through the token cache, some unnormalized
    specs = []
    for kind, n in levels:
        try:
            specs.append(GroupSpec(kind, n))
        except TrivialLevelError:
            continue
    if not specs:
        return
    t = TowerSpec(tuple(specs))
    res = d_tower(t)
    assert (res.d, res.case, res.abelianization) == ref.d_tower(t)
    assert _outcome(d_corollary, t) == _outcome(ref.d_corollary, t)
    assert _profile_tuple(counting_profile(t)) == ref.counting_profile(t.levels)
    assert abelianization(t.levels) == ref.abelianization(t.levels)


def test_the_token_cache_stays_within_its_bound():
    bound = wreath._level.cache_info().maxsize
    assert bound is not None
    for n in range(2, 2 * bound + 2):  # twice as many distinct tokens
        parse_tower(f"S3;C{n}")
    info = wreath._level.cache_info()
    assert info.currsize <= bound
    # the towers of the formula sweep name ten tokens, which stay cached
    parse_tower("A4;A5;S3;S4;S5;C2;C3;C4;C5;C6")
    hits = wreath._level.cache_info().hits
    parse_tower("C6;C5;C4;C3;C2;S5;S4;S3;A5;A4")
    assert wreath._level.cache_info().hits == hits + 10
