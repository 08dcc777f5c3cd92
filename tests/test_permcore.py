"""Exact-arithmetic checks for permutations and stabilizer chains.

Expected orders and ranks in here are frozen from independent brute force
(element enumeration / direct point evaluation), not from the code under
test.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup

from chain_reference import ReferenceBsgs, chain_digest, reference_build, reference_rattle
from wreathgen import oracle, permcore
from wreathgen.permcore import (
    TRIAL_DIVISION_BOUND,
    BudgetExceeded,
    Bsgs,
    ConsistencyError,
    DegreeMismatch,
    ParseError,
    PermGroup,
    Permutation,
    abelian_p_ranks,
    bsgs_build,
    cayley_walk,
    derived_subgroup,
    format_cycles,
    parse_cycles,
    prime_factorization,
    _composer,
    _first_moved,
    _invert,
    _strong_probable_prime,
    _table,
)
from wreathgen.wreath import (
    GroupSpec,
    local_actions,
    parse_tower,
    standard_generators,
    tower_generators,
    tower_group,
)


def _images(p: Permutation) -> tuple[int, ...]:
    return tuple(map(p, range(p.degree)))


def _apply_words(p: Permutation, q: Permutation, x: int) -> int:
    # independent evaluation oracle for composition order
    return _images(q)[_images(p)[x]]


def test_compose_is_left_to_right():
    p = parse_cycles("(1 2 3)", 3)
    q = parse_cycles("(1 2)", 3)
    r = p * q
    for x in range(3):
        assert r(x) == _apply_words(p, q, x)
    assert format_cycles(r) == "(2 3)"


def test_parse_basics():
    assert parse_cycles("id", 4).is_identity()
    assert parse_cycles("()", 4).is_identity()
    assert _images(parse_cycles("(1 2)(3 4)", 5)) == (1, 0, 3, 2, 4)
    assert _images(parse_cycles(" ( 1 2 ) ", 2)) == (1, 0)


@pytest.mark.parametrize("bad", ["(1 2", "1 2)", "(1 2)(2 3)", "(0 1)", "(1 9)", "(1,2)", "", "(a b)", "(-1 2)"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_cycles(bad, 8)


def test_format_normalizes():
    p = parse_cycles("(4 5)(2 1)", 6)
    assert format_cycles(p) == "(1 2)(4 5)"
    assert format_cycles(Permutation.identity(3)) == "id"


@given(st.integers(1, 30).flatmap(lambda n: st.permutations(range(n))))
def test_roundtrip(images):
    p = Permutation(images)
    assert parse_cycles(format_cycles(p), p.degree) == p


@given(
    st.integers(2, 20).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )
)
def test_group_laws(pair):
    p, q = Permutation(pair[0]), Permutation(pair[1])
    e = Permutation.identity(p.degree)
    assert p * p.inverse() == e
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert p * e == p and e * p == p


@given(
    st.integers(250, 260).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )
)
def test_compose_and_invert_across_the_255_switch(pair):
    p, q = Permutation(pair[0]), Permutation(pair[1])
    n = p.degree
    assert _images(p * q) == tuple(_images(q)[x] for x in _images(p))
    assert _images(p.inverse()) == tuple(sorted(range(n), key=_images(p).__getitem__))
    assert (p * p.inverse()).is_identity() and p.inverse() * p == Permutation.identity(n)
    assert Permutation.identity(n) != Permutation.identity(n + 1)
    assert Permutation.identity(3) != Permutation.identity(4)
    with pytest.raises(IndexError):
        p(n)


@st.composite
def _windowed(draw, n, size=8):
    """A permutation of 0..n-1 that moves at most the points of one window
    of up to `size`, placed anywhere, at the top end half the time."""
    lo = draw(st.one_of(st.integers(0, n - 1), st.just(max(0, n - size))))
    hi = draw(st.integers(lo + 1, min(n, lo + size)))
    return tuple(range(lo)) + tuple(draw(st.permutations(range(lo, hi)))) + tuple(range(hi, n))


@given(st.one_of(st.integers(1, 255), st.integers(256, 260)).flatmap(
    lambda n: st.tuples(_windowed(n), st.permutations(range(n)))))
def test_stored_forms_and_tables_agree_with_plain_tuples(pair):
    # a stored form is the `degree` bytes of the images up to degree 255
    # and the tuple above; the right operand of a composition is a table,
    # the bytes padded with fixed points to 256, the tuple itself above 255
    a, b = pair[0], tuple(pair[1])
    n = len(a)
    raw_a, raw_b = Permutation(a).raw, Permutation(b).raw
    compose = _composer(n)
    ab, ba = tuple(b[x] for x in a), tuple(a[x] for x in b)
    inverse = tuple(sorted(range(n), key=a.__getitem__))
    if n <= 255:
        assert raw_a == bytes(a) and _table(raw_a) == bytes(a) + bytes(range(n, 256))
    else:
        assert raw_a == a and _table(raw_a) == a
    assert compose(raw_a, _table(raw_b)) == Permutation(ab).raw
    assert tuple(compose(raw_b, _table(raw_a))) == ba
    # a table composed on the left is the table of the product
    assert compose(_table(raw_a), _table(raw_b)) == _table(Permutation(ab).raw)
    ident = Permutation.identity(n).raw
    assert _invert(raw_a, ident) == _table(Permutation(inverse).raw)
    assert tuple(compose(raw_a, _invert(raw_a, ident))) == tuple(range(n))
    if a != tuple(range(n)):
        assert _first_moved(raw_a) == min(x for x in range(n) if a[x] != x)
        assert _first_moved(_table(raw_a)) == _first_moved(raw_a)


@settings(deadline=None)
@given(st.integers(0, 260).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)),
    st.just(()) if n == 0 else _windowed(n, 4))))
def test_a_stored_form_holds_exactly_its_degree_images(drawn):
    # the small window keeps the walked group small at every degree
    p, q, w = Permutation(drawn[0]), Permutation(drawn[1]), Permutation(drawn[2])
    n = p.degree
    made = [p * q, p.inverse(), Permutation.identity(n), parse_cycles(format_cycles(p), n),
            *cayley_walk(n, [w, w.inverse()])[0]]
    assert all(len(x.raw) == x.degree == n for x in made)
    assert all(type(x.raw) is (bytes if n <= 255 else tuple) for x in made)
    assert Permutation.identity(3).raw != Permutation.identity(5).raw


def test_pow_and_order():
    c = parse_cycles("(1 2 3 4 5 6)", 6)
    assert c.order() == 6
    assert (c ** 6).is_identity()
    assert c ** -1 == c.inverse()
    p = parse_cycles("(1 2)(3 4 5)", 5)
    assert p.order() == 6


def test_not_a_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        parse_cycles("(1 2)", 2) * parse_cycles("(1 2)", 3)


# --- stabilizer chains ------------------------------------------------------

A4 = PermGroup.from_cycles(4, "(1 2 3)", "(2 3 4)")
S4 = PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")
A5 = PermGroup.from_cycles(5, "(1 2 3)", "(1 2 3 4 5)")
S6 = PermGroup.from_cycles(6, "(1 2)", "(1 2 3 4 5 6)")
C12 = PermGroup.from_cycles(12, "(1 2 3 4 5 6 7 8 9 10 11 12)")
V4 = PermGroup.from_cycles(4, "(1 2)(3 4)", "(1 3)(2 4)")


@pytest.mark.parametrize(
    "group,order",
    [(A4, 12), (S4, 24), (A5, 60), (S6, 720), (C12, 12), (V4, 4)],
)
def test_bsgs_order_matches_enumeration(group, order):
    assert group.order() == order
    assert len(cayley_walk(group.degree, group.generators)[0]) == order


def test_bsgs_order_s7():
    s7 = PermGroup.from_cycles(7, "(1 2)", "(1 2 3 4 5 6 7)")
    assert s7.order() == 5040
    assert len(cayley_walk(7, s7.generators)[0]) == 5040


def test_bsgs_deterministic_base():
    b1 = bsgs_build(A5)
    b2 = bsgs_build(A5)
    assert b1.base == b2.base
    assert b1._strong == b2._strong
    assert b1.base[0] == min(x for g in A5.generators for x in range(5) if g(x) != x)


def test_membership_closed_under_products():
    rng = random.Random(7)
    chain = S6.bsgs()
    elems = cayley_walk(6, S6.generators)[0]
    for _ in range(200):
        x, y = rng.choice(elems), rng.choice(elems)
        assert chain.contains(x) and chain.contains(y)
        assert chain.contains(x * y)
    outside = parse_cycles("(1 2)", 7)
    with pytest.raises(DegreeMismatch):
        chain.contains(outside)


def test_membership_rejects_non_elements():
    chain = A4.bsgs()
    assert not chain.contains(parse_cycles("(1 2)", 4))
    assert chain.contains(parse_cycles("(1 2)(3 4)", 4))


def test_strong_generators_are_members():
    for group in (A5, S6, C12):
        chain = group.bsgs()
        for s in chain._strong:
            assert chain.contains(Permutation(s[:chain.degree]))


def test_transversal_maps_base_to_point():
    chain = A5.bsgs()
    for i, level in enumerate(chain._levels):
        for pt, u in level.orbit.items():
            assert u[level.point] == pt
            assert all(u[b] == b for b in chain.base[:i])


def test_extend_grows_and_refuses_members():
    chain = bsgs_build(PermGroup.from_cycles(5, "(1 2 3 4 5)"))
    assert chain.order() == 5
    assert chain.extend(parse_cycles("(1 2 3)", 5))
    assert chain.order() == 60
    assert not chain.extend(parse_cycles("(1 2 3)", 5))
    assert chain.order() == 60


def _chain_digest(chain) -> str:
    """Base, strong generators (as images, in insertion order) and each
    level's transversal keys (in discovery order), hashed."""
    data = (chain.base,
            [tuple(g[:chain.degree]) for g in chain._strong],
            [list(lv.orbit) for lv in chain._levels])
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


# name -> (group, base, digest): a change to how the chain is built must
# build the same chain.  C16;C16 (degree 256) stores its permutations as
# tuples, the others as bytes
CHAIN_PINS = {
    "S4": (lambda: S4, (0, 1, 2), "05fea1b5649dbc9b"),
    "A7": (lambda: PermGroup(7, standard_generators(GroupSpec("A", 7))),
           (0, 2, 1, 3, 4), "3b01c367e9f569ac"),
    "C3;C2;C2": (lambda: tower_group(parse_tower("C3;C2;C2")),
                 (0, 8, 4, 10, 6, 2), "bdd5f79cc774908f"),
    "S3;A4": (lambda: tower_group(parse_tower("S3;A4")),
              (0, 4, 8, 1, 5, 9), "4273f236611e7053"),
    "C16;C16": (lambda: tower_group(parse_tower("C16;C16")),
                (0,) + tuple(range(240, 0, -16)), "9194a29377680e0c"),
    "derived C3;C2;C2": (lambda: derived_subgroup(tower_group(parse_tower("C3;C2;C2"))),
                         (0, 2, 4, 6, 8), "8d59f63e83876feb"),
}


@pytest.mark.parametrize("name", CHAIN_PINS)
def test_chain_structure_is_pinned(name):
    build, base, digest = CHAIN_PINS[name]
    chain = bsgs_build(build())
    assert chain.base == base
    assert _chain_digest(chain) == digest
    # nothing the chain holds grows with the pairs its queues took up, only
    # with its transversal elements and strong generators
    nodes = sum(len(lv.orbit) - 1 for lv in chain._levels) + len(chain._strong)
    assert all(len(v) <= nodes for v in vars(chain).values()
               if isinstance(v, (list, set, dict)))
    for lv in chain._levels:
        assert all(len(v) <= nodes for v in (lv.gens, lv.orbit, lv.inv, lv.pending))


def _unpaired(chain: Bsgs) -> list[tuple[int, int]]:
    """(level, point) of each orbit point of a deterministic chain whose
    transversal element u composed with its stored u^-1 is not the
    identity."""
    compose = _composer(chain.degree)
    return [(i, pt) for i, lv in enumerate(chain._levels) for pt, u in lv.orbit.items()
            if compose(u, lv.inv[pt]) != chain._ident]


# the library's chain against the plain reference, which sifts every
# Schreier generator, also one its build has sifted before: the same base,
# transversals and strong generators
@pytest.mark.parametrize("name", [*CHAIN_PINS, "C17;C3;C5", "C3;C10;C10"])
def test_chain_matches_the_reference(name):
    # C16;C16 (degree 256) and C17;C3;C5 (degree 255) on either side of
    # the switch between the stored forms; C3;C10;C10 (degree 300) has
    # points past 256, which are not cached small ints
    group = CHAIN_PINS[name][0]() if name in CHAIN_PINS else tower_group(parse_tower(name))
    chain = bsgs_build(group)
    assert chain_digest(chain) == chain_digest(reference_build(group))
    assert _unpaired(chain) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_chain_matches_the_reference_on_drawn_groups(images):
    group = PermGroup(len(images[0]), [Permutation(g) for g in images])
    chain = bsgs_build(group)
    assert chain_digest(chain) == chain_digest(reference_build(group))
    assert _unpaired(chain) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)),
    st.integers(0, 2 ** 32 - 1).map(random.Random))
def test_a_chain_built_to_the_known_order_is_complete(images, rng):
    n = len(images[0])
    group = PermGroup(n, [Permutation(g) for g in images])
    full = bsgs_build(group)
    order = full.order()
    chain = bsgs_build(group, order)
    assert chain.order() == order
    probes = [Permutation(rng.sample(range(n), n)) for _ in range(20)]
    word = Permutation.identity(n)
    for g in rng.choices(group.generators, k=2 * n):
        word = word * g
        probes.append(word)
    assert [chain.contains(p) for p in probes] == [full.contains(p) for p in probes]
    # no chain of <gens> exceeds its order: built to twice that, it stops
    # at the order, a lower bound, and the group given that claim refuses it
    assert bsgs_build(group, 2 * order).order() == order
    with pytest.raises(ConsistencyError, match="stalled"):
        PermGroup(n, group.generators, 2 * order).order()
    # every orbit of a subgroup has a size that divides the order, so the
    # orbit product never equals order - 1, which is prime to it; the
    # product passes it
    if order > 2:
        with pytest.raises(ConsistencyError, match="passes"):
            bsgs_build(group, order - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_a_known_order_chains_levels_are_nested(images):
    # each level's strong generators include the next level's, which the
    # bound behind QUIET_DRAWS needs; residues kept at their own level only
    # broke it
    group = PermGroup(len(images[0]), [Permutation(g) for g in images])
    chain = bsgs_build(group, bsgs_build(group).order())
    for upper, lower in zip(chain._levels, chain._levels[1:]):
        assert set(lower.gens) <= set(upper.gens)


def _held_tables(chain: Bsgs) -> int:
    """The tables a chain holds: two per strong generator and, per orbit
    point besides the base points, u^-1 and, in a deterministic chain, u."""
    per_point = 1 if chain._levels[0].orbit is None else 2
    return 2 * len(chain._strong) + per_point * sum(len(lv.inv) - 1 for lv in chain._levels)


# S7 at degree 7, C3;C10;C10 at degree 300, past the switch to tuples
_BUDGETED = [lambda: PermGroup(7, standard_generators(GroupSpec("S", 7))),
             CHAIN_PINS["C3;C2;C2"][0], lambda: tower_group(parse_tower("C3;C10;C10"))]


@pytest.mark.parametrize("known", [False, True], ids=["deterministic", "known order"])
@pytest.mark.parametrize("build", _BUDGETED, ids=["S7", "C3;C2;C2", "C3;C10;C10"])
def test_a_chain_counts_the_tables_it_holds(build, known):
    group = build()
    chain = bsgs_build(group, bsgs_build(group).order() if known else None)
    assert chain._tables == _held_tables(chain)
    assert chain._table_bytes == sys.getsizeof(_table(chain._ident))


@pytest.mark.parametrize("known", [False, True], ids=["deterministic", "known order"])
@pytest.mark.parametrize("build", _BUDGETED, ids=["S7", "C3;C2;C2", "C3;C10;C10"])
def test_a_chain_over_its_byte_budget_stops_before_it_stores_past_it(monkeypatch, build, known):
    group = build()
    order = bsgs_build(group).order() if known else None
    full = bsgs_build(group, order)
    budget = full._tables * full._table_bytes // 2
    monkeypatch.setattr(permcore, "CHAIN_BYTE_BUDGET", budget)
    stored = []

    def recorded(name):
        method = getattr(Bsgs, name)

        def call(chain, *args, **kwargs):
            out = method(chain, *args, **kwargs)
            stored.append(_held_tables(chain) * chain._table_bytes)
            return out
        return call

    for name in ("_adopt", "_process", "_grow"):
        monkeypatch.setattr(Bsgs, name, recorded(name))
    with pytest.raises(BudgetExceeded, match=f"over the budget of {budget}$"):
        bsgs_build(group, order)
    assert stored and max(stored) <= budget


@pytest.mark.parametrize("spec,a", [
    (GroupSpec("S", 300), [1, 0] + list(range(2, 300))),  # (1 2), (1 2 .. 300)
    (GroupSpec("A", 250), [1, 2, 0] + list(range(3, 250))),  # (1 2 3), (1 2)(3 4 .. 250)
])
def test_the_chain_budget_admits_the_largest_single_levels_quoted(spec, a):
    # the chains `verify --tower S300` and `--tower A250` build, counted at
    # 112 MB and 9 MB
    n = spec.n
    b = list(range(1, n)) + [0] if spec.kind == "S" else [1, 0] + list(range(3, n)) + [2]
    chain = bsgs_build(PermGroup(n, [Permutation(a), Permutation(b)]), spec.order())
    assert chain.order() == spec.order()
    assert chain._tables * chain._table_bytes <= permcore.CHAIN_BYTE_BUDGET


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 254, 255, 256]).flatmap(
    lambda n: st.lists(_windowed(n, 5), min_size=1, max_size=3)))
def test_chains_at_the_ends_of_both_forms_match_the_reference_and_sympy(images):
    # degrees 1 and 2 and either side of the switch between the two forms
    n = len(images[0])
    group = PermGroup(n, [Permutation(g) for g in images])
    chain = bsgs_build(group)
    assert chain_digest(chain) == chain_digest(reference_build(group))
    assert chain.order() == PermutationGroup([SympyPermutation(list(g)) for g in images]).order()
    assert all(chain.contains(g) for g in group.generators)
    # the values a chain composes on the right are the tables of stored forms
    assert all(_table(Permutation(s[:n]).raw) == s for s in chain._strong)
    assert all(_table(Permutation(v[:n]).raw) == v
               for lv in chain._levels for v in lv.inv.values())


def test_a_normal_closures_chain_matches_the_reference(monkeypatch):
    # also extended by seeds that did not grow it
    g = tower_group(parse_tower("C3;C2;C2"))
    seeds = permcore._commutators(g.generators)
    calls, extend = [], Bsgs.extend
    with monkeypatch.context() as counted:
        counted.setattr(Bsgs, "extend", lambda chain, c: calls.append(c) or extend(chain, c))
        gens, chain = permcore._normal_closure(g, seeds)
    assert len(calls) > len(gens)
    monkeypatch.setattr(permcore, "Bsgs", ReferenceBsgs)
    assert chain_digest(chain) == chain_digest(permcore._normal_closure(g, seeds)[1])


# the four cyclic-top towers of the verify-scan benchmark, each with the
# k its witness search fails at: its abelianization lower bound
WITNESS_K = {"C5;C2;C2": 2, "C7;C2;C2": 2, "C3;C2;C2;C2": 3, "C3;C3;C2;C2": 2}


@pytest.mark.parametrize("tower", WITNESS_K)
def test_witness_candidate_chains_match_the_reference(monkeypatch, tower):
    # the 200 seed-1 candidate k-tuples, none of which generates: chains
    # of one group built one after another, each with its own sifts
    g, k = tower_group(parse_tower(tower)), WITNESS_K[tower]
    same = []

    def both(h):
        chain = bsgs_build(h)
        same.append(chain_digest(chain) == chain_digest(reference_build(h)))
        return chain

    monkeypatch.setattr(oracle, "bsgs_build", both)
    assert oracle.find_generating_tuple(g, k, seed=1, attempts=200) is None
    assert same == [True] * 200


@pytest.mark.parametrize("name", ["C3;C2;C2", "C16;C16"])
def test_a_tower_groups_cached_chain_is_complete_and_refuses_extend(name):
    # the chain tower_group built to |W|, not a second one
    t = parse_tower(name)
    group = tower_group(t)
    chain = group._bsgs
    assert chain is not None and group.bsgs() is chain
    assert chain.order() == t.order()
    assert all(chain.contains(g) for g in group.generators)
    # (1 3) splits the bottom level's first block of C3;C2;C2 and is no
    # rotation at the bottom of C16;C16
    bad = parse_cycles("(1 3)", t.leaf_count())
    with pytest.raises(ConsistencyError):
        local_actions(t, bad)
    assert not chain.contains(bad)
    # a chain built to a known order takes no extend()
    with pytest.raises(ConsistencyError, match="known order"):
        chain.extend(bad)


@st.composite
def _padded_groups(draw):
    """(degree, m, generators, probes): one to three permutations of the
    points 0..m-1, m = min(degree, 8), padded with fixed points to a degree
    on either side of the switch between the two stored forms, and up to
    six more permutations of 0..m-1 to test for membership."""
    n = draw(st.one_of(st.integers(6, 9), st.integers(250, 260)))
    m = min(n, 8)
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
    probes = draw(st.lists(st.permutations(range(m)), max_size=6))
    return n, m, [tuple(g) for g in gens], [tuple(q) for q in probes]


@settings(max_examples=40, deadline=None)
@given(_padded_groups(), st.integers(0, 2 ** 32 - 1).map(random.Random))
def test_chain_agrees_with_enumeration(case, rng):
    n, m, gens, probes = case
    pad = tuple(range(m, n))
    # the oracle enumerates the group at degree m, on its moved points only
    members = {_images(e) for e in cayley_walk(m, map(Permutation, gens))[0]}
    chain = PermGroup(n, [Permutation(g + pad) for g in gens]).bsgs()
    assert chain.order() == len(members)
    for images in rng.sample(sorted(members), min(len(members), 20)):
        assert chain.contains(Permutation(images + pad))
    for images in probes:
        assert chain.contains(Permutation(images + pad)) == (images in members)
    if pad:  # a point no generator moves stays fixed
        swap = list(range(n))
        swap[0], swap[n - 1] = n - 1, 0
        assert not chain.contains(Permutation(swap))


# known-order chains of towers on either side of the switch between the
# stored forms: C17;C3;C5 (255 leaves) and A5;C3;C3;C2;C2 (180) keep
# bytes, C16;C16 (256) tuples
KNOWN_ORDER_TOWERS = ["C17;C3;C5", "A5;C3;C3;C2;C2", "C16;C16"]


def _probes(group: PermGroup, reference: Bsgs, rng: random.Random, k: int = 20):
    """(members, non-members): k random words in the generators, and each
    of k random permutations the reference refuses planted on a member."""
    n, word = group.degree, Permutation.identity(group.degree)
    members = []
    for g in rng.choices(group.generators, k=k):
        word = word * g
        members.append(word)
    outside = (Permutation(rng.sample(range(n), n)) for _ in range(k))
    return members, [rng.choice(members) * x for x in outside if not reference.contains(x)]


def _bad_inverses(chain: Bsgs, reference: Bsgs) -> list[tuple[int, int]]:
    """(level, point) of each stored inverse that does not send its point
    to the level's base point, moves a base point above, or lies outside
    the reference's group."""
    bad = []
    for i, lv in enumerate(chain._levels):
        for q, v in lv.inv.items():
            p = Permutation(v[:chain.degree])
            if (p(q) != lv.point or any(p(b) != b for b in chain.base[:i])
                    or not reference.contains(p)):
                bad.append((i, q))
    return bad


def _check_known_order_chain(group: PermGroup, chain: Bsgs, rng: random.Random):
    # the deterministic chain of the same generators is the reference
    reference = bsgs_build(PermGroup(group.degree, group.generators))
    members, outside = _probes(group, reference, rng)
    assert chain.order() == reference.order()
    assert all(chain.contains(p) and reference.contains(p) for p in members)
    assert not any(chain.contains(p) or reference.contains(p) for p in outside)
    assert _bad_inverses(chain, reference) == []


@settings(max_examples=40, deadline=None)
@given(_padded_groups(), st.integers(0, 2 ** 32 - 1).map(random.Random))
def test_a_known_order_chain_agrees_with_the_reference_on_drawn_groups(case, rng):
    n, m, gens, _ = case
    pad = tuple(range(m, n))
    group = PermGroup(n, [Permutation(g + pad) for g in gens])
    _check_known_order_chain(group, bsgs_build(group, bsgs_build(group).order()), rng)


@pytest.mark.parametrize("name", KNOWN_ORDER_TOWERS)
def test_a_known_order_chain_agrees_with_the_reference_on_towers(name):
    group = tower_group(parse_tower(name))
    _check_known_order_chain(group, group.bsgs(), random.Random(1))


def _swapped(v, x, y):
    w = list(v)
    w[x], w[y] = w[y], w[x]
    return type(v)(w)


def _transposition(n: int, x: int, y: int) -> Permutation:
    return Permutation(_swapped(tuple(range(n)), x, y))


@pytest.mark.parametrize("name", KNOWN_ORDER_TOWERS)
def test_swapping_two_images_in_a_stored_inverse_is_caught(name):
    group = tower_group(parse_tower(name))
    chain, reference = group.bsgs(), bsgs_build(PermGroup(group.degree, group.generators))
    assert _bad_inverses(chain, reference) == []
    lv = chain._levels[0]
    q = next(reversed(lv.inv))
    kept = lv.inv[q]
    # the images of two points other than q whose transposition t lies
    # outside the group: the inverse still sends q home, but t times it
    # leaves the group
    x, y = next((x, y) for x, y in combinations(range(chain.degree), 2)
                if q not in (x, y) and not reference.contains(_transposition(chain.degree, x, y)))
    lv.inv[q] = _swapped(kept, x, y)
    assert _bad_inverses(chain, reference) == [(0, q)]
    lv.inv[q] = _swapped(kept, q, x)
    assert _bad_inverses(chain, reference) == [(0, q)]


def test_a_known_order_chain_inverts_each_strong_generator_once(monkeypatch):
    # every other inverse it stores is composed from these; the
    # deterministic chain of C2;C16;C16 (512 points) keeps the same layout
    # and inverts no transversal element
    calls = []
    invert = permcore._invert

    def counted(a, ident):
        calls.append(a)
        return invert(a, ident)

    monkeypatch.setattr(permcore, "_invert", counted)
    chain = tower_group(parse_tower("C2;C2;C2;C2;C2;C2;C2;C2;C2")).bsgs()
    assert len(calls) == len(chain._strong) == 363
    calls.clear()
    chain = bsgs_build(PermGroup(512, tower_generators(parse_tower("C2;C16;C16"))))
    assert len(calls) == len(chain._strong) == 35
    assert _unpaired(chain) == []


@pytest.mark.parametrize("name", ["C17;C3;C5", "C3;C10;C10"])
def test_swapping_two_images_in_a_deterministic_inverse_is_caught(name):
    # bytes (degree 255) and tuples (degree 300)
    chain = bsgs_build(tower_group(parse_tower(name)))
    lv = chain._levels[0]
    q = next(reversed(lv.inv))
    lv.inv[q] = _swapped(lv.inv[q], 1, chain.degree - 1)
    assert _unpaired(chain) == [(0, q)]


@pytest.mark.parametrize("known_order", [False, True])
def test_a_chains_inverses_share_its_identitys_points(known_order):
    # past 256 a point is an int object of its own; every inverse a chain
    # of 512 points stores takes its entries from the chain's identity
    group = tower_group(parse_tower("C2;C16;C16"))
    chain = group.bsgs() if known_order else bsgs_build(PermGroup(512, group.generators))
    ident = chain._ident
    inverses = [v for lv in chain._levels for v in lv.inv.values()]
    inverses += [s_inv for lv in chain._levels for _, s_inv in lv.gens]
    assert len(inverses) > len(chain._levels)
    assert all(x is ident[x] for v in inverses for x in v)


@pytest.mark.parametrize("name", [*KNOWN_ORDER_TOWERS, "S4;S4;S4;S4"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_rattle_draws_the_reference_stream(name, seed):
    # the draws of the Permutation-level stream, which the witnesses,
    # the perfbench pins and the golden documents were recorded with
    gens = tower_generators(parse_tower(name))
    n = gens[0].degree
    ours = permcore.rattle(gens, random.Random(seed), n)
    theirs = reference_rattle(gens, random.Random(seed), n)
    assert [ours() for _ in range(50)] == [theirs() for _ in range(50)]


@pytest.mark.parametrize("name", ["C16;C16", "S4;S4;S4;S4", "C2;C2;C2;C2;C2;C2;C2;C2;C2"])
def test_a_known_order_chain_stores_one_permutation_per_orbit_point(name):
    # plus the strong generators and their inverses; a chain that also
    # kept each transversal element peaked at 1.6-2.8 times this
    t = parse_tower(name)
    tracemalloc.start()
    try:
        chain = tower_group(t).bsgs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(len(lv.inv) for lv in chain._levels) + 2 * len(chain._strong)
    assert peak <= 1.4 * stored * sys.getsizeof(chain._strong[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m), st.sampled_from([m, 256]),  # both stored forms
    st.lists(st.permutations(range(m)), max_size=3))))
def test_walk_tree_is_the_first_edge_into_each_element(case):
    m, n, images = case
    gens = [Permutation(tuple(g) + tuple(range(m, n))) for g in images]
    elements, edges, tree = cayley_walk(n, gens)
    assert len(set(elements)) == len(elements) == PermGroup(n, gens).order()
    assert len(tree) == len(elements) - 1
    assert all(a < b for a, b in zip(tree, tree[1:]))
    first = {}  # element -> first edge into it, in row-major order
    for e, t in enumerate(x for row in edges for x in row):
        first.setdefault(t, e)
    for t, e in enumerate(tree, 1):
        i, j = divmod(e, len(gens))
        assert i < t and edges[i][j] == t
        assert elements[i] * gens[j] == elements[t]
        assert first[t] == e


_LEVELS = ["C2", "C3", "C4", "C5", "C6", "S3", "A4", "S4", "A5"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=3)
       .filter(lambda ls: parse_tower(";".join(ls)).leaf_count() <= 72))
def test_abelian_p_ranks_match_the_index_of_g_prime_and_powers(levels):
    g = tower_group(parse_tower(";".join(levels)))
    order = g.order()
    primes = sorted(set(prime_factorization(order)) | {2, 3, 5, 7})
    ranks = abelian_p_ranks(g, primes)
    derived = derived_subgroup(g).generators
    for p in primes:
        # d_p(G/G') is log_p |G : <G' u {g^p}>|, each chain built here
        h = PermGroup(g.degree, list(derived) + [s ** p for s in g.generators])
        index, rem = divmod(order, h.order())
        assert rem == 0
        assert p ** ranks[p] == index


def test_abelian_p_ranks_of_cyclic_groups_with_square_index():
    # |G:G'| = 4 and 9: the p-part of the index alone does not give the rank
    assert abelian_p_ranks(PermGroup.from_cycles(4, "(1 2 3 4)"), [2]) == {2: 1}
    assert abelian_p_ranks(V4, [2]) == {2: 2}
    c9 = PermGroup.from_cycles(9, "(1 2 3 4 5 6 7 8 9)")
    c3c3 = PermGroup.from_cycles(6, "(1 2 3)", "(4 5 6)")
    assert abelian_p_ranks(c9, [3]) == {3: 1}
    assert abelian_p_ranks(c3c3, [3]) == {3: 2}


def test_large_degree_tuple_kernel():
    big = PermGroup(300, [Permutation(tuple(range(1, 300)) + (0,))])
    assert big.order() == 300
    assert big.contains(big.generators[0] ** 299)


# --- derived subgroups and abelianized ranks --------------------------------

@pytest.mark.parametrize(
    "group,dorder",
    [(S4, 12), (A4, 4), (A5, 60), (C12, 1), (V4, 1),
     (PermGroup.from_cycles(3, "(1 2)", "(1 2 3)"), 3)],
)
def test_derived_subgroup_orders(group, dorder):
    assert derived_subgroup(group).order() == dorder


def test_derived_subgroup_is_normal():
    d = derived_subgroup(S4)
    chain = d.bsgs()
    for elem in cayley_walk(4, S4.generators)[0]:
        for gen in d.generators:
            assert chain.contains(gen.conj(elem))


@pytest.mark.parametrize(
    "group,p,rank",
    [
        (C12, 2, 1), (C12, 3, 1), (C12, 5, 0),
        (S4, 2, 1), (S4, 3, 0),
        (A4, 2, 0), (A4, 3, 1),
        (A5, 2, 0), (A5, 3, 0), (A5, 5, 0),
        (V4, 2, 2),
    ],
)
def test_abelian_p_rank(group, p, rank):
    assert abelian_p_ranks(group, [p])[p] == rank


def test_abelian_p_rank_vanishes_off_order():
    for group in (A4, S4, C12, V4):
        order = group.order()
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if order % p:
                assert abelian_p_ranks(group, [p])[p] == 0


def test_abelian_p_ranks_batch():
    assert abelian_p_ranks(S4, [2, 3, 5]) == {2: 1, 3: 0, 5: 0}
    with pytest.raises(ValueError):
        abelian_p_ranks(S4, [1])


def test_abelian_p_ranks_build_one_chain(monkeypatch):
    # on C6;C6 both 2^2 and 3^2 divide |G:G'|; chains are counted where
    # extend runs on them, so a chain made without its constructor counts
    g = tower_group(parse_tower("C6;C6"))
    g.order()  # the group's own chain is built before counting starts
    chains = []
    extend = Bsgs.extend

    def counting_extend(self, p):
        if not any(c is self for c in chains):
            chains.append(self)
        return extend(self, p)

    monkeypatch.setattr(Bsgs, "extend", counting_extend)
    assert abelian_p_ranks(g, [2, 3]) == {2: 2, 3: 2}
    assert len(chains) == 1
    monkeypatch.undo()
    assert abelian_p_ranks(g, [2, 2, 3]) == abelian_p_ranks(g, [2, 3])
    assert abelian_p_ranks(tower_group(parse_tower("C3;C2;C2")), [5, 7]) == {5: 0, 7: 0}
    with pytest.raises(ValueError):
        abelian_p_ranks(g, [1])


def test_abelian_p_ranks_refuse_a_p_that_is_not_prime():
    # unrefused, C2;C2 answered {4: 1} for [4], and [6] there and [4] on
    # C4;C2 raised ConsistencyError, which reports a bug
    c2c2, c4c2 = tower_group(parse_tower("C2;C2")), tower_group(parse_tower("C4;C2"))
    for group, primes in ((c2c2, [4]), (c2c2, [6]), (c4c2, [4]), (c2c2, [2, 9]),
                          (c2c2, [0]), (c2c2, [-3])):
        with pytest.raises(ValueError, match="prime"):
            abelian_p_ranks(group, primes)
    assert abelian_p_ranks(c2c2, [2, 3]) == {2: 2, 3: 0}


# strong pseudoprimes to the first 4, 5, 6, 8, 11 and 12 prime bases: for
# every count of bases from 4 to 12, the least one is in this list
STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051, 318665857834031151167461]
# the least strong pseudoprime to the first 13 prime bases, 2 through 41
PSI_13 = 3317044064679887385961981
M61 = 2 ** 61 - 1


def test_strong_test_agrees_with_a_sieve_and_catches_strong_pseudoprimes():
    top = 30000
    composite = bytearray(top)
    for d in range(2, int(top ** 0.5) + 1):
        composite[d * d::d] = b"\1" * len(range(d * d, top, d))
    for n in range(43, top, 2):
        assert _strong_probable_prime(n) == (not composite[n]), n
    for n in STRONG_PSEUDOPRIMES:
        assert not _strong_probable_prime(n), n
    # the 13 bases are fooled at their bound, so it is exclusive
    assert _strong_probable_prime(PSI_13)


def test_prime_factorization_certifies_a_prime_cofactor_past_trial_division():
    assert prime_factorization(M61) == {M61: 1}
    assert prime_factorization(360 * M61) == {2: 3, 3: 2, 5: 1, M61: 1}
    # below the trial bound squared no strong test is needed: p < 2^31
    assert prime_factorization(2 ** 31 - 1) == {2 ** 31 - 1: 1}
    assert prime_factorization(65521 * 65519) == {65519: 1, 65521: 1}


def test_prime_factorization_is_exact_on_group_orders():
    # every prime factor of a subgroup order of Sym(m) is at most m
    for m in (12, 100, 4096):
        expected = {}
        for p in range(2, m + 1):
            if all(p % q for q in range(2, int(p ** 0.5) + 1)):
                e, q = 0, p
                while q <= m:  # Legendre: the exponent of p in m!
                    e += m // q
                    q *= p
                expected[p] = e
        assert prime_factorization(math.factorial(m)) == expected


@pytest.mark.parametrize("n", [
    65537 * 65539,  # composite, both factors past the trial bound
    PSI_13,  # composite, at the bound where the strong test stops being exact
    2 ** 89 - 1,  # prime, past that bound
])
def test_prime_factorization_refuses_what_it_cannot_settle(n):
    with pytest.raises(BudgetExceeded, match=f"trial division up to {TRIAL_DIVISION_BOUND}"):
        prime_factorization(n)
