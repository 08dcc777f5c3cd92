"""Brute-force generation oracle: tables, bounds, certificates."""

import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wreathgen import oracle
from wreathgen.oracle import (
    CayleyTable,
    GenResult,
    _scan_for_generating_tuple,
    d_lower_bound,
    find_generating_tuple,
    min_generators,
)
from wreathgen.permcore import BudgetExceeded, PermGroup, Permutation, parse_cycles
from wreathgen.wreath import parse_tower, tower_group


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

def test_is_cyclic_exact():
    # d_lower_bound decides cyclicity exactly: its bound is at most 1
    # exactly on cyclic groups
    assert d_lower_bound(PermGroup.from_cycles(6, "(1 2 3 4 5 6)"))[0] == 1
    # C2 x C3 = C6
    assert d_lower_bound(PermGroup.from_cycles(6, "(1 2)", "(3 4 5)"))[0] == 1
    assert d_lower_bound(PermGroup.from_cycles(4, "(1 2)", "(3 4)")) == (2, "abelianization")
    assert d_lower_bound(_s3()) == (2, "noncyclic")
    assert d_lower_bound(PermGroup(3, [Permutation.identity(3)]))[0] == 0


def test_lower_bound_ladder():
    assert d_lower_bound(_a5()) == (2, "noncyclic")
    assert d_lower_bound(PermGroup.from_cycles(6, "(1 2 3 4 5 6)")) == (1, "abelianization")
    assert d_lower_bound(PermGroup(3, [Permutation.identity(3)])) == (0, "trivial")
    assert d_lower_bound(tower_group(parse_tower("C2;C2"))) == (2, "abelianization")
    assert d_lower_bound(tower_group(parse_tower("C2;C2;C2"))) == (3, "abelianization")


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
    pair = find_generating_tuple(_s4(), 2, seed=3)
    assert pair is not None and len(pair) == 2
    assert PermGroup(4, pair).order() == 24


def test_random_witness_none_when_impossible():
    assert find_generating_tuple(_s4(), 1, seed=3) is None


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
        r = min_generators(tower_group(parse_tower(text)), seed=1)
        assert r.status == "exact", text
        assert r.lower == r.upper == d, text


def test_min_generators_plain_groups():
    r = min_generators(_s4())
    assert (r.lower, r.upper, r.status) == (2, 2, "exact")
    assert r.lower_certificate == "noncyclic"
    # d_lower_bound owns the trivial-group rule; min_generators meets it at once
    for gens in ([], [Permutation.identity(3)]):
        assert min_generators(PermGroup(3, gens), seed=7) == GenResult(
            0, "trivial", 0, (), "exact", 7)
    c = min_generators(PermGroup.from_cycles(6, "(1 2)", "(3 4 5)"))
    assert (c.lower, c.upper) == (1, 1)


def test_table_is_built_only_when_a_scan_needs_it(monkeypatch):
    # a witness settles C3;A4 at seed 1, so no pair scan runs
    def no_table(*args):
        raise AssertionError("Cayley table built without a scan")

    monkeypatch.setattr(CayleyTable, "build", no_table)
    g = tower_group(parse_tower("C3;A4"))
    r = min_generators(g, seed=1)
    assert (r.lower, r.upper, r.status) == (2, 2, "exact")


def test_witness_regenerates_group():
    for text in ("A4;C3", "S3;C2"):
        g = tower_group(parse_tower(text))
        r = min_generators(g, seed=1)
        assert len(r.witness) == r.upper
        assert PermGroup(g.degree, r.witness).order() == g.order()


def test_same_seed_same_result():
    g = tower_group(parse_tower("A4;C3"))
    a = min_generators(g, seed=7).to_json()
    b = min_generators(g, seed=7).to_json()
    assert a == b


def test_seeds_agree_on_the_answer():
    g = tower_group(parse_tower("S3;C2"))
    values = {min_generators(g, seed=s).upper for s in (1, 2, 3)}
    assert values == {2}


def test_bounds_only_when_scan_is_off_limits(monkeypatch):
    # C3;C2;C2's 1,536-element table takes 4.7 MB, past a 2 MB budget
    monkeypatch.setattr(oracle, "TABLE_BYTE_BUDGET", 2_000_000)
    g = tower_group(parse_tower("C3;C2;C2"))
    r = min_generators(g, seed=1, attempts=40)
    assert (r.lower, r.upper, r.status) == (2, 3, "bounds_only")
    assert r.lower_certificate == "abelianization"


def test_result_json_schema():
    r = min_generators(_s4(), seed=5)
    js = r.to_json()
    assert set(js) == {"lower", "lower_certificate", "upper", "witness", "status", "seed"}
    assert js["seed"] == 5
    assert all(isinstance(w, str) for w in js["witness"])


def test_oracle_brackets_are_sane_on_random_products():
    rng = random.Random(20260815)
    pool = ["(1 2)", "(1 2 3)", "(1 2 3 4)", "(2 3 4)", "(1 3)(2 4)"]
    for _ in range(6):
        gens = [parse_cycles(rng.choice(pool), 4) for _ in range(2)]
        g = PermGroup(4, gens)
        r = min_generators(g, seed=rng.randrange(10 ** 6))
        assert r.lower <= r.upper
        assert r.status == "exact"
        if r.upper:
            assert PermGroup(4, r.witness).order() == g.order()
