"""Tower parsing, leaf indexing, block actions and the explicit 2-generator pair."""

from __future__ import annotations

import math
import random
import sys

import pytest

from tree_blocks import PLANTED_IDS, planted_non_members, project
from wreathgen import permcore, wreath
from wreathgen.permcore import (
    ConsistencyError,
    DegreeMismatch,
    ParseError,
    PermGroup,
    Permutation,
    format_cycles,
    parse_cycles,
)
from wreathgen.wreath import (
    GroupSpec,
    TowerSpec,
    TrivialLevelError,
    apply_at_vertex,
    example_generators,
    example_tower,
    leaf_index,
    parse_group,
    parse_tower,
    standard_generators,
    tower_generators,
    tower_group,
)


def test_parse_tower_roundtrip():
    t = parse_tower("A5;C3;C2;C2")
    assert t.degrees == (5, 3, 2, 2)
    assert t.text() == "A5;C3;C2;C2"
    assert t.leaf_count() == 60


@pytest.mark.parametrize("bad", ["", ";", "A5;;C2", "A5 ;C2", "B4", "A", "5A", "A5,C3"])
def test_parse_tower_rejects(bad):
    with pytest.raises(ParseError):
        parse_tower(bad)


@pytest.mark.parametrize("text", [
    "A5", "S7", "C6", "A4", "A5;C3;C2;C2", "S3;S100", "A200;C2", "C7;S5;A6;C4", "C1000;A5",
])
def test_log10_order_matches_the_exact_order(text):
    t = parse_tower(text)
    exact = math.log10(t.order())
    assert abs(t.log10_order() - exact) <= 1e-12 * max(exact, 1)


def test_log10_order_is_inf_once_a_term_overflows():
    assert parse_tower("C1" + "0" * 400 + ";C2").log10_order() == math.inf
    assert parse_tower("S1" + "0" * 400).log10_order() == math.inf


def test_a_degree_past_the_int_conversion_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads integers of any length")
    with pytest.raises(ParseError, match=f"C<{limit + 1} digits>"):
        parse_tower("A5;C1" + "0" * limit)


@pytest.mark.parametrize("token", ["C1", "S1", "A1", "A2"])
def test_trivial_levels_rejected(token):
    with pytest.raises(TrivialLevelError):
        parse_group(token)


def test_normalization():
    assert parse_tower("A3;C2").levels[0] == GroupSpec("C", 3)
    assert parse_tower("S2;C2").levels[0] == GroupSpec("C", 2)
    assert parse_tower("A4;S3").levels == (GroupSpec("A", 4), GroupSpec("S", 3))


def test_a_tower_built_from_specs_normalizes_its_levels():
    t = TowerSpec((GroupSpec("A", 3), GroupSpec("S", 2), GroupSpec("S", 3)))
    assert t.levels == (GroupSpec("C", 3), GroupSpec("C", 2), GroupSpec("S", 3))
    assert t == parse_tower("A3;S2;S3") and hash(t) == hash(parse_tower("C3;C2;S3"))
    with pytest.raises(ValueError):
        TowerSpec(())


def test_parse_tower_parses_each_token_once():
    first = parse_tower("A3;S2;A4;A3")
    before = wreath._level.cache_info()
    again = parse_tower("A3;S2;A4;A3")  # every token is cached now
    after = wreath._level.cache_info()
    assert (after.hits, after.misses) == (before.hits + 4, before.misses)
    assert again == first == TowerSpec(first.levels)
    assert again.levels == (GroupSpec("C", 3), GroupSpec("C", 2), GroupSpec("A", 4),
                            GroupSpec("C", 3))
    # the levels are the cached objects, shared between towers
    assert again.levels[0] is first.levels[0] is first.levels[3]


def test_orders():
    assert parse_tower("C3;C2;C2").order() == 3 * 2**3 * 2**6 == 1536
    assert parse_tower("S3;C2").order() == 6 * 2**3 == 48
    assert parse_tower("A5;C3;C2;C2").order() == 60 * 3**5 * 2**45
    assert GroupSpec("A", 6).order() == 360
    assert GroupSpec("S", 4).order() == 24


def test_leaf_index():
    t = parse_tower("C3;C2")
    assert [leaf_index(t, (a, b)) for a in (1, 2, 3) for b in (1, 2)] == list(range(6))
    assert leaf_index(t, (3, 2)) == 5
    assert leaf_index(parse_tower("A5;C3;C2;C2"), (1, 1, 1, 2)) == 1
    with pytest.raises(ValueError):
        leaf_index(t, (4, 1))
    with pytest.raises(ValueError):
        leaf_index(t, (1,))


def test_standard_generators_table():
    assert [format_cycles(p) for p in standard_generators(GroupSpec("C", 4))] == ["(1 2 3 4)"]
    assert [format_cycles(p) for p in standard_generators(GroupSpec("S", 3))] == ["(1 2)", "(1 2 3)"]
    assert [format_cycles(p) for p in standard_generators(GroupSpec("A", 4))] == ["(1 2 3)", "(2 3 4)"]
    assert [format_cycles(p) for p in standard_generators(GroupSpec("A", 5))] == ["(1 2 3)", "(1 2 3 4 5)"]


@pytest.mark.parametrize("spec", [GroupSpec("A", n) for n in range(4, 9)]
                         + [GroupSpec("S", n) for n in range(3, 8)]
                         + [GroupSpec("C", n) for n in (2, 3, 6, 12)])
def test_standard_generators_orders(spec):
    g = PermGroup(spec.n, standard_generators(spec))
    assert g.order() == spec.order()


def test_cyclic_generators_are_certified_without_a_chain(monkeypatch):
    # a chain of C_n holds 2n permutations of degree n: 6.4 GB at n = 20,000
    def refuse(group):
        raise AssertionError("chain built for a one-generator spec")

    monkeypatch.setattr(wreath, "bsgs_build", refuse)
    (gen,) = standard_generators(GroupSpec("C", 4099))
    assert gen.order() == 4099 and gen(4098) == 0


def test_standard_generators_of_s_and_a_are_certified_without_schreier_generators(monkeypatch):
    # a chain built to |S_n| or |A_n|; S100 stalled below its order when
    # each residue was kept at its own level only
    def no_schreier(*args):
        raise AssertionError("a Schreier generator was formed")

    monkeypatch.setattr(permcore.Bsgs, "_process", no_schreier)
    for spec in (GroupSpec("S", 100), GroupSpec("A", 41), GroupSpec("A", 40)):
        assert len(standard_generators.__wrapped__(spec)) == 2  # past the cache


def test_standard_generators_refuse_an_odd_pair_for_a6(monkeypatch):
    # (1 2 3) and (1 2 .. 6) generate S6, yet a chain of them built to 360
    # stops at 360, so only the parity check tells them from A6's pair
    a, b = parse_cycles("(1 2 3)", 6), parse_cycles("(1 2 3 4 5 6)", 6)
    assert permcore.bsgs_build(PermGroup(6, (a, b)), 360).order() == 360
    even = [0, 2, 3, 4, 5, 1]  # (2 3 4 5 6), A6's second generator

    def planted(images):
        return b if list(images) == even else Permutation(images)

    monkeypatch.setattr(wreath, "Permutation", planted)
    with pytest.raises(ConsistencyError, match="wrong order"):
        standard_generators.__wrapped__(GroupSpec("A", 6))


def test_a3_and_s2_are_made_as_c3_and_c2():
    for spec, cyclic in ((GroupSpec("A", 3), GroupSpec("C", 3)),
                         (GroupSpec("S", 2), GroupSpec("C", 2))):
        assert spec == cyclic and hash(spec) == hash(cyclic)
        assert spec.token() == cyclic.token() and spec.is_cyclic()
        assert standard_generators(spec) == standard_generators(cyclic)


@pytest.mark.parametrize("kind", "ASC")
def test_every_spec_is_made_normalized(kind):
    for n in range(1, 10):
        try:
            spec = GroupSpec(kind, n)
        except TrivialLevelError:
            with pytest.raises(TrivialLevelError):
                parse_group(f"{kind}{n}")
            continue
        assert spec == parse_group(f"{kind}{n}")
        want = "C" if (kind, n) in (("A", 3), ("S", 2)) else kind
        assert (spec.kind, spec.n) == (want, n)


def test_apply_at_root():
    t = parse_tower("C3;C2")
    a = apply_at_vertex(t, (), parse_cycles("(1 2 3)", 3))
    assert format_cycles(a) == "(1 3 5)(2 4 6)"


def test_apply_deep_vertex_moves_only_its_block():
    t = parse_tower("A5;C3;C2;C2")
    a = apply_at_vertex(t, (1, 1), Permutation((1, 0)))
    moved = [x for x in range(a.degree) if a(x) != x]
    assert moved == [0, 1, 2, 3]  # leaves under vertex (1,1)


def test_disjoint_vertices_commute():
    t = parse_tower("A4;C3;C2")
    a = apply_at_vertex(t, (1,), Permutation((1, 2, 0)))
    b = apply_at_vertex(t, (2,), Permutation((2, 0, 1)))
    assert a * b == b * a


def test_apply_validates():
    t = parse_tower("C3;C2")
    with pytest.raises(ValueError):
        apply_at_vertex(t, (1,), Permutation((1, 2, 0)))  # wrong degree
    with pytest.raises(ValueError):
        apply_at_vertex(t, (1, 1), Permutation((1, 0)))  # address too long
    with pytest.raises(ValueError):
        apply_at_vertex(t, (4,), Permutation((1, 0)))  # entry out of range


@pytest.mark.parametrize("text,order", [
    ("C2;C2", 8), ("S3;C2", 48), ("C3;C2;C2", 1536),
    ("A4;C3", 12 * 3**4), ("C2;S3", 2 * 36), ("S3;C2;C2", 3072),
])
def test_tower_group_orders(text, order):
    t = parse_tower(text)
    assert t.order() == order
    assert tower_group(t).order() == order  # chain order re-checked internally


def test_tower_group_random_orders():
    rng = random.Random(11)
    pool = ["A4", "A5", "S3", "S4", "C2", "C3", "C5"]
    for _ in range(8):
        k = rng.randint(1, 4)
        levels = [rng.choice(pool) for _ in range(k)]
        t = parse_tower(";".join(levels))
        if t.leaf_count() > 200:
            continue
        assert tower_group(t).order() == t.order()


def test_products_preserve_blocks():
    t = parse_tower("A4;C3;C2")
    gens = tower_generators(t)
    rng = random.Random(3)
    elem = gens[0]
    for _ in range(40):
        elem = elem * rng.choice(gens)
        for level in range(1, t.k):
            project(t, elem, level)  # raises when the level's blocks are not kept
    # swapping one leaf of the first level-1 block with one of the second
    stray = parse_cycles("(1 7)", t.leaf_count())
    with pytest.raises(ValueError):
        project(t, stray, 1)


def test_projection_is_homomorphism_onto_top():
    t = parse_tower("A5;C2;C2")
    gens = tower_generators(t)
    rng = random.Random(5)
    tops = []
    for _ in range(30):
        a = rng.choice(gens)
        b = rng.choice(gens)
        assert project(t, a * b, 1) == project(t, a, 1) * project(t, b, 1)
        tops.append(project(t, a * b, 1))
    top = PermGroup(5, tops)
    assert top.order() == 60  # images generate A5


def test_local_actions_of_a_vertex_move():
    # sigma at the vertex it is applied at, the identity at every other
    t = parse_tower("C2;S3;C4")
    sigma = parse_cycles("(1 3)", 3)
    acts = wreath.local_actions(t, apply_at_vertex(t, (2,), sigma))
    assert [len(level) for level in acts] == [1, 2, 6]
    assert acts[1] == [Permutation.identity(3), sigma]
    assert all(s.is_identity() for level in (acts[0], acts[2]) for s in level)
    with pytest.raises(ConsistencyError, match="degree 12"):
        wreath.local_actions(parse_tower("C2;S3"), Permutation.identity(12))


@pytest.mark.parametrize("text", ["A4;C3;C2", "C3;S3;C4", "C2;A5"])
def test_local_actions_compose_by_the_wreath_rule(text):
    # sigma_v(wu) = sigma_v(w) * sigma_{v^w}(u), where v^w is the vertex
    # w moves v to; its projection on the level above
    t = parse_tower(text)
    gens = tower_generators(t)
    rng = random.Random(11)
    for _ in range(20):
        w = math.prod((rng.choice(gens) for _ in range(5)), start=gens[0])
        u = math.prod((rng.choice(gens) for _ in range(5)), start=gens[-1])
        aw, au, awu = (wreath.local_actions(t, x) for x in (w, u, w * u))
        for i in range(t.k):
            moved = project(t, w, i) if i else Permutation.identity(1)
            assert awu[i] == [aw[i][v] * au[i][moved(v)] for v in range(len(aw[i]))]


def test_mixed_tower_composition():
    a = apply_at_vertex(parse_tower("C2;C2"), (), Permutation((1, 0)))
    b = apply_at_vertex(parse_tower("C2;C3"), (), Permutation((1, 0)))
    with pytest.raises(DegreeMismatch):  # 4 leaves against 6
        a * b


# --- the explicit pair -------------------------------------------------------

def test_example_rejects_bad_n():
    for n in (3, 4, 6):
        with pytest.raises(ValueError):
            example_generators(n)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_example_order_of_y(n):
    _, y = example_generators(n)
    assert y.order() == 2 * (n - 2)


@pytest.mark.parametrize("n", [5, 7])
def test_example_powers(n):
    t = example_tower(n)
    x, y = example_generators(n)
    chain = PermGroup(t.leaf_count(), [x, y]).bsgs()

    # x^4 lands on the 3-cycle at vertex (5,), x^9 on the order-4 element z
    x4 = apply_at_vertex(t, (5,), Permutation((1, 2, 0)))
    assert x ** 4 == x4 and chain.contains(x4)
    root = Permutation((1, 0, 3, 2) + tuple(range(4, n)))
    z = apply_at_vertex(t, (1, 1), Permutation((1, 0))) * apply_at_vertex(t, (), root)
    assert x ** 9 == z and chain.contains(z)
    assert z.order() == 4

    # odd part: y^(n-2) is the leaf swap under vertex (1,1,1)
    swap = apply_at_vertex(t, (1, 1, 1), Permutation((1, 0)))
    assert y ** (n - 2) == swap and chain.contains(swap)


def test_example_z_squared_swaps_sibling_leaf_pairs():
    t = example_tower(5)
    x, _ = example_generators(5)
    z2 = x ** 18
    assert format_cycles(z2) == "(1 3)(2 4)(13 15)(14 16)"
    # exactly the leaves below vertices 111<->112 and 211<->212
    assert leaf_index(t, (1, 1, 1, 1)) == 0 and leaf_index(t, (1, 1, 2, 2)) == 3
    assert leaf_index(t, (2, 1, 1, 1)) == 12 and leaf_index(t, (2, 1, 2, 2)) == 15


@pytest.mark.parametrize("n", [5, 7])
def test_example_pair_generates_everything(n):
    t = example_tower(n)
    x, y = example_generators(n)
    assert PermGroup(t.leaf_count(), [x, y]).order() == t.order()


@pytest.mark.parametrize("tower,bad,names", planted_non_members(), ids=PLANTED_IDS)
def test_tower_group_refuses_a_generator_outside_w_before_any_chain(monkeypatch, tower,
                                                                     bad, names):
    # a chain alone may miss it: built to |W|, it stops when its orbit
    # product meets |W|, which it can do before it passes |W|
    def no_chain(*args):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(wreath, "tower_generators", lambda t: tower_generators(t) + [bad])
    monkeypatch.setattr(permcore, "bsgs_build", no_chain)
    with pytest.raises(ConsistencyError, match=names):
        tower_group(tower)


def test_the_tower_group_of_c2_to_the_9_forms_no_schreier_generator(monkeypatch):
    calls = []
    process = permcore.Bsgs._process

    def counted(self, *args):
        calls.append(args)
        return process(self, *args)

    monkeypatch.setattr(permcore.Bsgs, "_process", counted)
    t = parse_tower(";".join(["C2"] * 9))
    g = tower_group(t)
    assert g.order() == t.order() and calls == []
    # the deterministic chain of a smaller tower's generators does form them
    small = parse_tower("C2;C2;C2")
    assert permcore.bsgs_build(PermGroup(8, tower_generators(small))).order() == small.order()
    assert calls


# towers whose chain stalled below |W| when each residue was kept at the
# level its sift stopped at: the chain's draws are seeded, so each stall
# reproduced on every run
@pytest.mark.parametrize("text", ["A18", "A30", "A39", "A41", "S57", "S65",
                                  "C2;S57", "S3;A41", "S57;S3"])
def test_tower_group_completes_where_own_level_residues_stalled(text):
    t = parse_tower(text)
    assert tower_group(t).order() == t.order()


def test_tower_order_check_has_teeth(monkeypatch):
    # sabotage the closed form: the chain comparison must fire
    t = parse_tower("S3;C2")
    monkeypatch.setattr(TowerSpec, "order", lambda self: 47)
    with pytest.raises(ConsistencyError):
        tower_group(t)
