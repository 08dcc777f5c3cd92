"""Brute-force generation oracle: tables, bounds, certificates."""

import random

import pytest

from wreathgen.oracle import (
    CayleyTable,
    GenSearchConfig,
    OrderLimitExceeded,
    d_lower_bound,
    exhaustive_nongeneration,
    find_generating_tuple,
    is_cyclic,
    min_generators,
)
from wreathgen.permcore import PermGroup, Permutation, parse_cycles
from wreathgen.wreath import parse_tower, tower_group


def _s3():
    return PermGroup.from_cycles(3, "(1 2)", "(1 2 3)")


def _s4():
    return PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")


def _a5():
    return PermGroup.from_cycles(5, "(1 2 3)", "(1 2 3 4 5)")


# ---------------------------------------------------------------- CayleyTable

def test_table_matches_direct_products():
    ct = CayleyTable.build(_s3(), 100)
    assert len(ct) == 6
    assert ct.elements[0].is_identity()
    for i in range(6):
        for j in range(6):
            prod = ct.elements[i] * ct.elements[j]
            assert ct.table[i, j] == ct.index[prod.images]


def test_table_inverse_array():
    ct = CayleyTable.build(_s4(), 100)
    for i in range(len(ct)):
        assert (ct.elements[i] * ct.elements[ct.inverse[i]]).is_identity()


def test_conjugacy_class_counts():
    assert len(CayleyTable.build(_s4(), 100).conjugacy_class_reps()) == 5
    assert len(CayleyTable.build(_a5(), 100).conjugacy_class_reps()) == 5
    assert len(CayleyTable.build(_s3(), 100).conjugacy_class_reps()) == 3


def test_conjugate_operation():
    ct = CayleyTable.build(_s4(), 100)
    for x in range(0, len(ct), 5):
        for g in ct.gen_indices:
            expect = ct.elements[x].conj(ct.elements[g])
            assert ct.conjugate(x, g) == ct.index[expect.images]


def test_closure_sizes_in_s4():
    ct = CayleyTable.build(_s4(), 100)
    i = lambda text: ct.index[parse_cycles(text, 4).images]
    assert ct.closure_size((i("(1 2 3 4)"),)) == 4
    assert ct.closure_size((i("(1 2)"), i("(3 4)"))) == 4
    assert ct.closure_size((i("(1 2)"), i("(1 2 3)"))) == 6
    assert ct.closure_size((i("(1 2)"), i("(1 2 3 4)"))) == 24
    assert ct.closure_size((0,)) == 1


def test_order_limit_enforced():
    with pytest.raises(OrderLimitExceeded):
        CayleyTable.build(tower_group(parse_tower("A5;C3;C2;C2")), 20000)


# ------------------------------------------------------------- lower bounds

def test_is_cyclic_exact():
    assert is_cyclic(PermGroup.from_cycles(6, "(1 2 3 4 5 6)"))
    assert is_cyclic(PermGroup.from_cycles(6, "(1 2)", "(3 4 5)"))  # C2 x C3 = C6
    assert not is_cyclic(PermGroup.from_cycles(4, "(1 2)", "(3 4)"))
    assert not is_cyclic(_s3())
    assert is_cyclic(PermGroup(3, [Permutation.identity(3)]))


def test_lower_bound_ladder():
    assert d_lower_bound(_a5()) == (2, "noncyclic")
    assert d_lower_bound(PermGroup.from_cycles(6, "(1 2 3 4 5 6)")) == (1, "abelianization")
    assert d_lower_bound(PermGroup(3, [Permutation.identity(3)])) == (0, "trivial")
    assert d_lower_bound(tower_group(parse_tower("C2;C2"))) == (2, "abelianization")
    assert d_lower_bound(tower_group(parse_tower("C2;C2;C2"))) == (3, "abelianization")


# ------------------------------------------------------- exhaustive scanning

def test_s4_generation_by_tuple_size():
    assert exhaustive_nongeneration(_s4(), 1)
    assert not exhaustive_nongeneration(_s4(), 2)


def test_nongeneration_respects_reduction_toggle():
    g = PermGroup.from_cycles(4, "(1 2)", "(3 4)")  # C2 x C2, d = 2
    for reduction in (True, False):
        cfg = GenSearchConfig(conjugacy_reduction=reduction)
        assert exhaustive_nongeneration(g, 1, cfg)
        assert not exhaustive_nongeneration(g, 2, cfg)


def test_cyclic_top_needs_three_generators():
    # |W| = 1536 and the abelianization only gives rank 2: certifying the
    # third generator requires the full scan over pairs.
    g = tower_group(parse_tower("C3;C2;C2"))
    assert exhaustive_nongeneration(g, 2)


# ---------------------------------------------------------- witness search

def test_random_witness_is_certified():
    pair = find_generating_tuple(_s4(), 2, GenSearchConfig(seed=3))
    assert pair is not None and len(pair) == 2
    assert PermGroup(4, pair).order() == 24


def test_random_witness_none_when_impossible():
    assert find_generating_tuple(_s4(), 1, GenSearchConfig(seed=3)) is None


# ----------------------------------------------------------- min_generators

def test_min_generators_cyclic_top_tower():
    r = min_generators(tower_group(parse_tower("C3;C2;C2")), GenSearchConfig(seed=1))
    assert (r.lower, r.upper, r.status) == (3, 3, "exact")
    assert r.lower_certificate == "exhaustive(2)"


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
        r = min_generators(tower_group(parse_tower(text)), GenSearchConfig(seed=1))
        assert r.status == "exact", text
        assert r.lower == r.upper == d, text


def test_min_generators_plain_groups():
    r = min_generators(_s4())
    assert (r.lower, r.upper, r.status) == (2, 2, "exact")
    assert r.lower_certificate == "noncyclic"
    t = min_generators(PermGroup(3, [Permutation.identity(3)]))
    assert (t.lower, t.upper, t.status) == (0, 0, "exact")
    assert t.witness == ()
    c = min_generators(PermGroup.from_cycles(6, "(1 2)", "(3 4 5)"))
    assert (c.lower, c.upper) == (1, 1)


def test_table_is_built_only_when_a_scan_needs_it(monkeypatch):
    # a witness settles C3;A4 at seed 1, so no pair scan runs
    def no_table(*args):
        raise AssertionError("Cayley table built without a scan")

    monkeypatch.setattr(CayleyTable, "build", no_table)
    g = tower_group(parse_tower("C3;A4"))
    r = min_generators(g, GenSearchConfig(seed=1))
    assert (r.lower, r.upper, r.status) == (2, 2, "exact")


def test_witness_regenerates_group():
    for text in ("C3;C2;C2", "A4;C3", "S3;C2"):
        g = tower_group(parse_tower(text))
        r = min_generators(g, GenSearchConfig(seed=1))
        assert len(r.witness) == r.upper
        assert PermGroup(g.degree, r.witness).order() == g.order()


def test_same_seed_same_result():
    g = tower_group(parse_tower("A4;C3"))
    a = min_generators(g, GenSearchConfig(seed=7)).to_json()
    b = min_generators(g, GenSearchConfig(seed=7)).to_json()
    assert a == b


def test_seeds_agree_on_the_answer():
    g = tower_group(parse_tower("S3;C2"))
    values = {min_generators(g, GenSearchConfig(seed=s)).upper for s in (1, 2, 3)}
    assert values == {2}


def test_reduction_toggle_agrees():
    g = tower_group(parse_tower("C2;S3"))
    r_on = min_generators(g, GenSearchConfig(seed=1, conjugacy_reduction=True))
    r_off = min_generators(g, GenSearchConfig(seed=1, conjugacy_reduction=False))
    assert (r_on.lower, r_on.upper) == (r_off.lower, r_off.upper) == (2, 2)


def test_bounds_only_when_scan_is_off_limits():
    g = tower_group(parse_tower("C3;C2;C2"))
    r = min_generators(g, GenSearchConfig(seed=1, random_attempts=40,
                                          exhaustive_order_limit=1000))
    assert (r.lower, r.upper, r.status) == (2, 3, "bounds_only")
    assert r.lower_certificate == "abelianization"


def test_result_json_schema():
    r = min_generators(_s4(), GenSearchConfig(seed=5))
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
        r = min_generators(g, GenSearchConfig(seed=rng.randrange(10 ** 6)))
        assert r.lower <= r.upper
        assert r.status == "exact"
        if r.upper:
            assert PermGroup(4, r.witness).order() == g.order()
