"""Brute-force generation oracle: tables, bounds, certificates."""

import itertools
import math
import random
import weakref

import branch_pool
import numpy as np
import pytest
from chain_reference import chain_lower_bound
from hypothesis import assume, example, given, settings, strategies as st
from tree_blocks import PLANTED_IDS, planted_non_members

from wreathgen import oracle, permcore
from wreathgen.formula import d_tower
from wreathgen.oracle import (
    CayleyTable,
    GenResult,
    _characters,
    _scan_for_generating_tuple,
    d_lower_bound,
    find_generating_tuple,
    level_sum_ranks,
    min_generators,
)
from wreathgen.permcore import (
    BudgetExceeded,
    ConsistencyError,
    PermGroup,
    Permutation,
    abelian_p_ranks,
    parse_cycles,
    prime_factorization,
)
from wreathgen.wreath import (
    GroupSpec,
    TowerSpec,
    parse_group,
    parse_tower,
    standard_generators,
    tower_generators,
    tower_group,
)


def _s3():
    return PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")


def _s4():
    return PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")


def _a5():
    return PermGroup.from_cycles(5, "(1 2 3)", "(1 2 3 4 5)")


# ---------------------------------------------------------------- CayleyTable

def _index(ct: CayleyTable) -> dict:
    return {e: i for i, e in enumerate(ct.elements)}


def test_table_matches_direct_products():
    ct = CayleyTable.build(_s3())
    index = _index(ct)
    assert len(ct) == 6 and len(index) == 6
    assert ct.elements[0].is_identity()
    for i in range(6):
        for j in range(6):
            prod = ct.elements[i] * ct.elements[j]
            assert ct.table[i, j] == index[prod]
    assert ct.gen_indices == [index[g] for g in _s3().generators]


def test_table_inverse_array():
    # the identity, index 0, sits in row i exactly at the column of i's
    # inverse, which is where conjugacy_class_reps finds an inverse
    ct = CayleyTable.build(_s4())
    index = _index(ct)
    for i in range(len(ct)):
        inv = index[ct.elements[i].inverse()]
        assert ct.table[i, inv] == 0 and ct.table[inv, i] == 0
        assert list(ct.table[:, i]).count(0) == 1


def test_conjugacy_class_counts():
    assert len(CayleyTable.build(_s4()).conjugacy_class_reps()) == 5
    assert len(CayleyTable.build(_a5()).conjugacy_class_reps()) == 5
    assert len(CayleyTable.build(_s3()).conjugacy_class_reps()) == 3


@pytest.mark.parametrize("g", [
    _s3(), _s4(), _a5(),
    PermGroup.from_cycles(4, "(1 2 3)", "(2 3 4)"),  # A4
    tower_group(parse_tower("C2;S3")), tower_group(parse_tower("S3;C2")),
    PermGroup.from_cycles(6, "(1 2)", "(3 4)", "(5 6)"),  # abelian: singletons
], ids=["S3", "S4", "A5", "A4", "C2;S3", "S3;C2", "C2^3"])
def test_class_reps_are_the_least_index_of_each_class(g):
    ct = CayleyTable.build(g)
    index = _index(ct)
    # brute force: the class of x is {y^-1 x y} over every element y
    least = {min(index[x.conj(y)] for y in ct.elements) for x in ct.elements}
    assert ct.conjugacy_class_reps() == sorted(least)


def test_closure_sizes_in_s4():
    ct = CayleyTable.build(_s4())
    i = lambda text: _index(ct)[parse_cycles(text, 4)]
    assert ct.closure_size((i("(1 2 3 4)"),)) == 4
    assert ct.closure_size((i("(1 2)"), i("(3 4)"))) == 4
    assert ct.closure_size((i("(1 2)"), i("(1 2 3)"))) == 6
    assert ct.closure_size((i("(1 2)"), i("(1 2 3 4)"))) == 24
    assert ct.closure_size((0,)) == 1


def test_order_limit_enforced(monkeypatch):
    # A5;C3;C2;C2 is refused on its order alone, before the walk that
    # would enumerate its elements
    def no_walk(*args):
        raise AssertionError("Cayley walk run for a table past the budget")

    monkeypatch.setattr(oracle, "cayley_walk", no_walk)
    with pytest.raises(BudgetExceeded):
        CayleyTable.build(tower_group(parse_tower("A5;C3;C2;C2")))


def test_table_budget_counts_the_bytes_of_the_table(monkeypatch):
    # S4's table is 24 x 24 int16 entries, 1,152 bytes
    monkeypatch.setattr(oracle, "TABLE_BYTE_BUDGET", 1152)
    table = CayleyTable.build(_s4()).table
    assert (table.nbytes, table.dtype.name) == (1152, "int16")
    monkeypatch.setattr(oracle, "TABLE_BYTE_BUDGET", 1151)
    with pytest.raises(BudgetExceeded):
        CayleyTable.build(_s4())


def test_the_table_budget_admits_only_int16_indices():
    # the table's entries are int16, so the real budget must refuse every
    # order of 2^15 or more; it admits up to 20,000 elements
    assert oracle._table_fits(20_000) and not oracle._table_fits(20_001)
    assert not any(map(oracle._table_fits, (2 ** 15, 2 ** 16, 10 ** 6)))


# ------------------------------------------------------------- lower bounds

def _bound(text):
    """d_lower_bound of the tower's group, given by the tower's generators."""
    t = parse_tower(text)
    return d_lower_bound(PermGroup(t.leaf_count(), tower_generators(t)), t)


def test_is_cyclic_exact():
    # d_lower_bound decides cyclicity exactly: its bound is at most 1
    # exactly on cyclic groups, among towers the single cyclic levels
    assert _bound("C6") == (1, "abelianization")
    # C6 generated by a rotation of order 2 and one of order 3
    c6 = parse_tower("C6")
    assert d_lower_bound(PermGroup.from_cycles(6, "(1 4)(2 5)(3 6)", "(1 3 5)(2 4 6)"),
                         c6) == (1, "abelianization")
    assert _bound("C2;C2") == (2, "abelianization")
    assert _bound("S3") == (2, "noncyclic")


def test_lower_bound_ladder():
    assert _bound("A5") == (2, "noncyclic")
    assert _bound("C6") == (1, "abelianization")
    assert _bound("C2;C2") == (2, "abelianization")
    assert _bound("C2;C2;C2") == (3, "abelianization")


@pytest.mark.parametrize("text,bound", [("S4;S4;S4;S4", 4), (";".join(["C2"] * 12), 12)],
                         ids=["S4^4", "C2^12"])
def test_the_lower_bound_builds_no_chain(monkeypatch, text, bound):
    # 256 and 4,096 leaves: the bound reads local actions, not |W|; only
    # standard_generators checks each level's order, on n_i points
    t = parse_tower(text)
    g = PermGroup(t.leaf_count(), tower_generators(t))

    def no_chain(*args):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(permcore, "bsgs_build", no_chain)
    monkeypatch.setattr(permcore.Bsgs, "extend", no_chain)
    assert d_lower_bound(g, t) == (bound, "abelianization")


# ------------------------------------------- level sums of local actions

def homomorphism_failure(ct: CayleyTable, f, p):
    """The first pair (a, b) of the table's elements with f(ab) != f(a) +
    f(b) mod p, or None when f is a homomorphism from the group to Z_p."""
    value = np.array([f(e) % p for e in ct.elements])
    bad = np.argwhere(value[ct.table] != (value[:, None] + value[None, :]) % p)
    return None if not len(bad) else tuple(ct.elements[i] for i in bad[0])


# A3 and S2 are made as C3 and C2
_LEVELS = [GroupSpec(kind, n) for kind, lo in (("A", 4), ("S", 3), ("C", 2))
           for n in range(lo, 7)]
# the Z_p factors of each level's abelianization
_EXPECTED_PRIMES = {"A4": [3], "A5": [], "A6": [], "C4": [2], "C6": [2, 3]}


@pytest.mark.parametrize("spec", _LEVELS, ids=lambda s: s.token())
def test_each_character_is_a_homomorphism_onto_z_p(spec):
    # every pair of elements, through the table's products
    ct = CayleyTable.build(PermGroup(spec.n, standard_generators(spec)))
    assert len(ct) == spec.order()
    chars = _characters(spec)
    want = _EXPECTED_PRIMES.get(spec.token(), list(prime_factorization(spec.n))
                                if spec.kind == "C" else [2])
    assert [p for p, _ in chars] == want
    for p, f in chars:
        assert homomorphism_failure(ct, f, p) is None
        assert {f(e) % p for e in ct.elements} == set(range(p))  # onto, so not constant


@pytest.mark.parametrize("spec", [GroupSpec("S", 4), GroupSpec("A", 4), GroupSpec("S", 5)],
                         ids=lambda s: s.token())
def test_a_planted_non_homomorphism_fails_the_check(spec):
    ct = CayleyTable.build(PermGroup(spec.n, standard_generators(spec)))
    fixed_points = lambda s: sum(s(x) == x for x in range(s.degree))
    a, b = homomorphism_failure(ct, fixed_points, 2)
    assert (fixed_points(a * b) - fixed_points(a) - fixed_points(b)) % 2


@pytest.mark.parametrize("tower,bad,names", planted_non_members(), ids=PLANTED_IDS)
def test_a_non_member_of_the_tower_group_is_refused_before_any_rank(monkeypatch, tower,
                                                                     bad, names):
    def no_rank(*args):
        raise AssertionError("a rank was read")

    monkeypatch.setattr(oracle.RowSpace, "span", classmethod(no_rank))
    # the planted generator comes last, after members that pass the check
    g = PermGroup(tower.leaf_count(), tower_generators(tower) + [bad])
    with pytest.raises(ConsistencyError, match=names):
        d_lower_bound(g, tower)
    # the members alone do reach the rank, so the refusal came first
    with pytest.raises(AssertionError, match="a rank was read"):
        d_lower_bound(tower_group(tower), tower)
    # min_generators reads its bound through the same refusal
    monkeypatch.setattr(oracle, "tower_group", lambda t: g)
    with pytest.raises(ConsistencyError, match=names):
        min_generators(tower, seed=1, attempts=200)


def _pool_towers(max_leaves=64):
    """The acceptance suite's towers (its ten levels, any height) of at
    most max_leaves leaves."""
    pool = [GroupSpec(k, n) for k, n in [("A", 4), ("A", 5), ("S", 3), ("S", 4), ("S", 5),
                                         ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("C", 6)]]
    out, height = [], [()]
    while height:  # the towers of one more level, grown from those that fit
        height = [c + (s,) for c in height for s in pool
                  if math.prod(x.n for x in c) * s.n <= max_leaves]
        out += map(TowerSpec, height)
    return out


# the items of the benchmark's `verify-scan` workload, A4;C3 twice
_VERIFY_SCAN = ["C5;C2;C2", "C7;C2;C2", "C3;C2;C2;C2", "C3;C3;C2;C2", "C3;A4", "A4;C3",
                "C2;S3", "S3;C2", "S3;C2;C2", "C2;C2", "C2;C2;C2", "C17;C3;C5", "C16;C16",
                "C2;S4", "C2;C3;C2", "A4;C3", "C3;S3", "C2;C2;C3"]


def test_level_sum_ranks_agree_with_the_chain_of_g_prime_g_r():
    # every third of the 977 pool towers, and the verify-scan towers; the
    # chain reference takes about 2 s for all 977
    pool = _pool_towers()
    assert len(pool) == 977
    scan = [parse_tower(x) for x in _VERIFY_SCAN]
    rng = random.Random(29)
    for t in pool[::3] + scan:
        g = tower_group(t)
        chain = abelian_p_ranks(g, prime_factorization(g.order()))
        sums = level_sum_ranks(g, t)
        assert set(sums) <= set(chain), t.text()
        assert {p: sums.get(p, 0) for p in chain} == chain, t.text()
        # the tower's generators act at the leftmost vertices only; their
        # conjugates by an element of W generate W too, and act anywhere
        w = math.prod((rng.choice(g.generators) for _ in range(6)), start=g.generators[0])
        moved = PermGroup(g.degree, [x.conj(w) for x in g.generators])
        assert level_sum_ranks(moved, t) == sums, t.text()
        bound = d_lower_bound(g, t)
        assert (bound[0] <= 1) == (t.k == 1 and t.levels[0].is_cyclic()), t.text()
        if t in scan:
            assert bound == chain_lower_bound(g), t.text()


# ------------------------------------------------------- exhaustive scanning

def _reference_scan(ct: CayleyTable, k: int):
    """First k-tuple of element indices, over all of them in every slot,
    whose closure is everything, or None."""
    n = len(ct)
    return next((t for t in itertools.product(range(n), repeat=k)
                 if ct.closure_size(t) == n), None)


def test_s4_generation_by_tuple_size():
    ct = CayleyTable.build(_s4())
    for scan in (_scan_for_generating_tuple, _reference_scan):
        assert scan(ct, 1) is None
        pair = scan(ct, 2)
        assert PermGroup(4, [ct.elements[i] for i in pair]).order() == 24


@st.composite
def _small_groups(draw, max_block=4, max_order=60):
    """Groups of order at most max_order given by 1-3 generators; every
    generator permutes the same 1-3 blocks of 2 to max_block points
    separately, so direct products occur."""
    sizes = draw(st.lists(st.integers(2, max_block), min_size=1, max_size=3))
    starts = [sum(sizes[:i]) for i in range(len(sizes))]

    def gen():
        return Permutation([s + x for s, n in zip(starts, sizes)
                            for x in draw(st.permutations(range(n)))])

    g = PermGroup(sum(sizes), [gen() for _ in range(draw(st.integers(1, 3)))])
    assume(g.order() <= max_order)
    return g


@settings(max_examples=150, deadline=None)
@given(_small_groups(), st.sampled_from([1, 2]))
@example(PermGroup.from_cycles(6, "(1 2)", "(3 4)", "(5 6)"), 2)  # C2^3: no pair
@example(PermGroup.from_cycles(7, "(1 2 3)", "(1 2)", "(4 5)", "(6 7)"), 2)  # S3 x C2^2
def test_reduced_scan_agrees_with_the_reference(g, k):
    ct = CayleyTable.build(g)
    found = _scan_for_generating_tuple(ct, k)
    assert (found is None) == (_reference_scan(ct, k) is None)
    if found is not None:
        assert PermGroup(g.degree, [ct.elements[i] for i in found]).order() == g.order()


# wreath products, which _small_groups cannot draw, of 48 to 1,152
# elements; all but S3;C2 are pair-scan towers of `verify-scan`
_SCAN_GROUPS = ["S3;C2", "C3;S3", "C2;C3;C2", "A4;C3", "C2;S4"]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_closure_size_is_the_order_of_the_generated_subgroup(data):
    g = data.draw(st.one_of(
        _small_groups(max_block=5, max_order=2000),
        st.sampled_from(_SCAN_GROUPS).map(lambda t: tower_group(parse_tower(t)))))
    ct = CayleyTable.build(g)
    n = len(ct)
    assert ct.closure_size(ct.gen_indices) == n
    # the identity and the generators are drawn often, so repeats, the
    # identity and generating tuples all occur
    index = st.one_of(st.integers(0, n - 1), st.sampled_from([0, *ct.gen_indices]))
    idxs = data.draw(st.lists(index, min_size=1, max_size=3))
    assert ct.closure_size(idxs) == PermGroup(g.degree, [ct.elements[i] for i in idxs]).order()


# ---------------------------------------------------------- witness search

def test_random_witness_is_certified():
    pair = find_generating_tuple(_s4(), 2, seed=3, attempts=200)
    assert pair is not None and len(pair) == 2
    assert PermGroup(4, pair).order() == 24


def test_random_witness_none_when_impossible():
    assert find_generating_tuple(_s4(), 1, seed=3, attempts=200) is None


def test_each_witness_chain_is_freed_before_the_next_is_built(monkeypatch):
    # S4 is not cyclic, so every one of the 20 candidates builds a chain
    # and fails; were a chain still referenced, two would be held at once
    chains, alive = [], []
    build = oracle.bsgs_build

    def tracked(g, order=None):
        alive.append(sum(ref() is not None for ref in chains))
        chain = build(g, order)
        chains.append(weakref.ref(chain))
        return chain

    monkeypatch.setattr(oracle, "bsgs_build", tracked)
    assert find_generating_tuple(_s4(), 1, seed=3, attempts=20) is None
    assert alive == [0] * 20


# ----------------------------------------------------------- min_generators

def test_min_generators_frozen_towers():
    expected = {
        "S3;C2": 2,
        "A4;C3": 2,
        "C2;C2": 2,
        "C2;S3": 2,
        "C2;C2;C2": 3,
        "S3;C2;C2": 3,
        "C3;C3": 2,
        "C4;C2": 2,
    }
    for text, d in expected.items():
        r = min_generators(parse_tower(text), seed=1, attempts=200)
        assert r.status == "exact", text
        assert r.lower == r.upper == d, text


def _toggled(text: str) -> tuple[int, ...]:
    """The middle level's abelian primes with the bottom's prime q
    toggled: a wrong set that moves d, since q decides it."""
    middle, bottom = parse_tower(text).levels[1:]
    return tuple(sorted(set(middle.abelian_primes) ^ {bottom.n}))


# the branch pool's A4 and Sn towers, each with one level outside the
# acceptance pool in the middle, and that level's wrong abelian primes
NEW_LEVELS = {text: _toggled(text)
              for text in branch_pool.D_TOWER["A4"] + branch_pool.D_TOWER["Sn"]}


def _standard_generators_branch(token: str) -> str:
    gens = standard_generators(parse_group(token))
    n = gens[0].degree
    shapes = tuple(tuple(len(c) for c in g.cycles()) for g in gens)
    return {((n,),): "C_n", ((2,), (n,)): "S_n", ((3,), (n,)): "A_n, n odd",
            ((3,), (n - 1,)): "A_n, n even"}[shapes]


def _abelian_primes_branch(token: str) -> str:
    spec = parse_group(token)
    primes = spec.abelian_primes
    if spec.kind == "C":
        if len(primes) > 1:
            return "C_n, two primes"
        return "C_n, n a prime" if primes == (spec.n,) else "C_n, n a prime power"
    return {("S", (2,)): "S_n", ("A", (3,)): "A4", ("A", ()): "A_n, n >= 5"}[spec.kind, primes]


@pytest.mark.parametrize("branches,branch_of,names", [
    (branch_pool.STANDARD_GENERATORS, _standard_generators_branch,
     {"C_n", "S_n", "A_n, n odd", "A_n, n even"}),
    (branch_pool.ABELIAN_PRIMES, _abelian_primes_branch,
     {"C_n, n a prime", "C_n, n a prime power", "C_n, two primes", "S_n", "A4", "A_n, n >= 5"}),
    (branch_pool.D_TOWER, lambda text: d_tower(parse_tower(text)).case,
     {"SingleLevel", "Cyclic", "A4", "An", "Sn"}),
], ids=["standard_generators", "abelian_primes", "d_tower"])
def test_every_branch_occurs(branches, branch_of, names):
    # each branch has its own list, and every entry of it takes that branch
    assert set(branches) == names
    for branch, entries in branches.items():
        assert entries, f"no entry takes the branch {branch}"
        assert {branch_of(e) for e in entries} == {branch}, branch


def _exact_at_the_closed_form(t: TowerSpec) -> bool:
    r = min_generators(t, seed=1, attempts=200)
    return r.status == "exact" and r.lower == d_tower(t).d


@pytest.mark.parametrize("text", NEW_LEVELS)
def test_min_generators_certify_levels_outside_the_pool(text):
    assert _exact_at_the_closed_form(parse_tower(text))


@pytest.mark.parametrize("text", NEW_LEVELS)
def test_a_wrong_prime_on_the_new_level_alone_fails_the_check(monkeypatch, text):
    t = parse_tower(text)
    # levels are shared objects, and d_tower reads the cached property off them
    monkeypatch.setitem(vars(t.levels[1]), "abelian_primes", NEW_LEVELS[text])
    assert not _exact_at_the_closed_form(t)


def test_min_generators_single_levels():
    r = min_generators(parse_tower("S4"), seed=1, attempts=200)
    assert (r.lower, r.upper, r.status) == (2, 2, "exact")
    assert r.lower_certificate == "noncyclic"
    # the tower's generators are the initial witness, as they are
    c = min_generators(parse_tower("C6"), seed=7, attempts=200)
    assert c == GenResult(1, "abelianization", tuple(standard_generators(GroupSpec("C", 6))), 7)
    assert (c.upper, c.status) == (1, "exact")


def test_table_is_built_only_when_a_scan_needs_it(monkeypatch):
    # a witness settles C3;A4 at seed 1, so no pair scan runs
    def no_table(*args):
        raise AssertionError("Cayley table built without a scan")

    monkeypatch.setattr(CayleyTable, "build", no_table)
    r = min_generators(parse_tower("C3;A4"), seed=1, attempts=200)
    assert (r.lower, r.upper, r.status) == (2, 2, "exact")


def test_witness_regenerates_group():
    for text in ("A4;C3", "S3;C2"):
        t = parse_tower(text)
        r = min_generators(t, seed=1, attempts=200)
        assert len(r.witness) == r.upper
        assert PermGroup(t.leaf_count(), r.witness).order() == t.order()


def test_same_seed_same_result():
    t = parse_tower("A4;C3")
    a = min_generators(t, seed=7, attempts=200).to_json()
    b = min_generators(t, seed=7, attempts=200).to_json()
    assert a == b


def test_seeds_agree_on_the_answer():
    t = parse_tower("S3;C2")
    values = {min_generators(t, seed=s, attempts=200).upper for s in (1, 2, 3)}
    assert values == {2}


def test_bounds_only_when_scan_is_off_limits(monkeypatch):
    # C3;C2;C2's 1,536-element table takes 4.7 MB, past a 2 MB budget
    monkeypatch.setattr(oracle, "TABLE_BYTE_BUDGET", 2_000_000)
    r = min_generators(parse_tower("C3;C2;C2"), seed=1, attempts=40)
    assert (r.lower, r.upper, r.status) == (2, 3, "bounds_only")
    assert r.lower_certificate == "abelianization"


def test_result_json_schema():
    r = min_generators(parse_tower("S4"), seed=5, attempts=200)
    js = r.to_json()
    assert set(js) == {"lower", "lower_certificate", "upper", "witness", "status", "seed"}
    assert js["seed"] == 5
    assert all(isinstance(w, str) for w in js["witness"])


def test_oracle_brackets_are_sane_on_random_products(monkeypatch):
    # pair scans past 1,000 elements are left to the acceptance suite:
    # C3;C2;C2 takes 4 s and C2;C3;C3 717 s; such towers end bounds_only
    monkeypatch.setattr(oracle, "TABLE_BYTE_BUDGET", 2_000_000)
    pool = _pool_towers(24)
    assert len(pool) == 179
    rng = random.Random(20260815)
    for t in rng.sample(pool, 30):
        r = min_generators(t, seed=rng.randrange(10 ** 6), attempts=200)
        assert r.lower <= d_tower(t).d <= r.upper, t.text()
        assert (r.status == "exact") == (r.lower == r.upper), t.text()
        assert PermGroup(t.leaf_count(), r.witness).order() == t.order(), t.text()
