"""Acceptance suite: ten end-to-end checks, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.
Each check carries its own wall-clock budget; values asserted here were
derived by the independent oracles before being frozen.
"""

import itertools
import time

import formula_reference as ref
from tree_blocks import project
from wreathgen.cli import main as cli_main
from wreathgen.formula import abelianization, d_tower
from wreathgen.modfp import check_Ip_structure, cohomology_of_Ip
from wreathgen.oracle import min_generators
from wreathgen.permcore import (
    PermGroup,
    abelian_p_ranks,
    bsgs_build,
    cayley_walk,
    parse_cycles,
)
from wreathgen.wreath import (
    GroupSpec,
    TowerSpec,
    apply_at_vertex,
    example_generators,
    example_tower,
    parse_tower,
    tower_generators,
    tower_group,
)

_POOL = [GroupSpec(k, n) for k, n in
         [("A", 4), ("A", 5), ("S", 3), ("S", 4), ("S", 5),
          ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("C", 6)]]
_NONCYCLIC = [g for g in _POOL if not g.is_cyclic()]


def _report(num, description, failures, t0, budget):
    elapsed = time.monotonic() - t0
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s, budget {budget}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"acceptance {num:2d} [{verdict}] {description} ({elapsed:.2f}s)"
          + ("" if not failures else f" :: {'; '.join(failures)}"))
    assert not failures, f"acceptance {num}: {failures}"


def test_acceptance_01_example_tower_two_generators(capsys):
    t0 = time.monotonic()
    failures = []
    t = parse_tower("A5;C3;C2;C2")
    res = d_tower(t)
    if res.d != 2:
        failures.append(f"formula d = {res.d}")
    oracle = min_generators(t, seed=1, attempts=200)
    if (oracle.status, oracle.lower, oracle.upper) != ("exact", 2, 2):
        failures.append(f"oracle {oracle.status} [{oracle.lower},{oracle.upper}]")
    x, y = example_generators(5)
    want = 60 * 3 ** 5 * 2 ** 15 * 2 ** 30
    got = bsgs_build(PermGroup(60, (x, y))).order()
    if got != want:
        failures.append(f"pair generates order {got}, tower order {want}")
    with capsys.disabled():
        _report(1, "d = 2 on A5;C3;C2;C2, explicit pair generates", failures, t0, 10)


def test_acceptance_02_cyclic_top_needs_three(capsys):
    t0 = time.monotonic()
    failures = []
    t = parse_tower("C3;C2;C2")
    res = d_tower(t)
    if res.d != 3:
        failures.append(f"formula d = {res.d}")
    if t.order() != 1536:
        failures.append(f"order {t.order()}")
    # exhaustive(2) certifies that the pair scan found no generating pair
    oracle = min_generators(t, seed=1, attempts=200)
    if ((oracle.status, oracle.lower, oracle.upper, oracle.lower_certificate)
            != ("exact", 3, 3, "exhaustive(2)")):
        failures.append(f"oracle {oracle.to_json()}")
    if PermGroup(t.leaf_count(), oracle.witness).order() != t.order():
        failures.append("the witness does not regenerate the group")
    with capsys.disabled():
        _report(2, "d = 3 on C3;C2;C2 certified by exhaustive pair scan", failures, t0, 300)


def test_acceptance_03_second_generator_order(capsys):
    t0 = time.monotonic()
    failures = []
    for n in (5, 7, 9):
        _, y = example_generators(n)
        if y.order() != 2 * (n - 2):
            failures.append(f"n={n}: order {y.order()} != {2 * (n - 2)}")
    with capsys.disabled():
        _report(3, "second example generator has order 2(n-2)", failures, t0, 5)


def test_acceptance_04_case_split_at_desk_scale(capsys):
    t0 = time.monotonic()
    failures = []
    # every listed value is the same under either serialization order of
    # the levels, so both orientations are checked where they differ
    expected = {"C3;A4": 2, "A4;C3": 2, "C2;S3": 2, "S3;C2": 2,
                "S3;C2;C2": 3, "C2;C2": 2, "C2;C2;C2": 3}
    for text, want in expected.items():
        t = parse_tower(text)
        d = d_tower(t).d
        if d != want:
            failures.append(f"{text}: formula {d} != {want}")
            continue
        oracle = min_generators(t, seed=1, attempts=200)
        if oracle.status != "exact" or oracle.lower != want:
            failures.append(f"{text}: oracle {oracle.to_json()}")
    with capsys.disabled():
        _report(4, "case-split values match the oracle exactly", failures, t0, 300)


def _towers(levels_pool, k_range, top_filter):
    for k in k_range:
        for combo in itertools.product(levels_pool, repeat=k):
            if top_filter(combo[0]):
                yield TowerSpec(combo)


def test_acceptance_05_counting_form_agreement(capsys):
    t0 = time.monotonic()
    failures = []
    checked = 0
    # d_corollary returns d_tower's value; the counting form is the
    # reference's, written out by kind
    for t in _towers(_POOL, range(2, 6), lambda g: not g.is_cyclic()):
        if ref.d_corollary(t) != d_tower(t).d:
            failures.append(f"{t.text()}: counting form != case split")
            if len(failures) > 3:
                break
        checked += 1
    if not failures:
        failures += [] if checked == 5 * (10 + 100 + 1000 + 10000) else [f"checked {checked}"]
    with capsys.disabled():
        _report(5, f"counting form agrees on all {checked} towers, k <= 5", failures, t0, 60)


def test_acceptance_06_reduction_identity(capsys):
    t0 = time.monotonic()
    failures = []
    checked = 0
    # the reference writes each level's abelianization out by kind, so a
    # wrong per-level fact in the library shows here
    for t in _towers(_POOL, range(2, 6), lambda g: True):
        res = d_tower(t)
        if (res.d, res.case, res.abelianization) != ref.d_tower(t):
            failures.append(f"{t.text()}")
            if len(failures) > 3:
                break
        checked += 1
    if not failures:
        failures += [] if checked == 10 * (10 + 100 + 1000 + 10000) else [f"checked {checked}"]
    with capsys.disabled():
        _report(6, f"d_tower agrees with the reference on all {checked} towers", failures, t0, 300)


def test_acceptance_07_deleted_module_structure(capsys):
    t0 = time.monotonic()
    failures = []
    pairs = [(4, 2), (4, 3), (4, 5), (5, 2), (5, 3), (5, 5), (6, 2), (6, 5), (7, 2), (7, 3)]
    for n, p in pairs:
        rep = check_Ip_structure(n, p)
        if rep.status != "verified":
            failures.append(f"({n},{p}) unverified")
        elif n % p == 0:
            if rep.unique_maximal is not True:
                failures.append(f"({n},{p}) not unique maximal")
        elif not (rep.direct_sum and rep.irreducible and rep.end_dim == 1 and rep.r == n - 1):
            failures.append(f"({n},{p}) {rep.to_json()}")
    with capsys.disabled():
        _report(7, "deleted permutation module structure on 10 (n,p) pairs", failures, t0, 120)


def test_acceptance_08_cocycle_dimension_bounds(capsys):
    t0 = time.monotonic()
    failures = []
    # regression dims were derived by the solver and cross-checked against
    # restriction to Sylow subgroups before freezing
    table = {  # (n, p): (bound, frozen exact dim)
        (4, 5): (1, 0), (4, 7): (1, 0), (4, 3): (2, 0),
        (5, 2): (2, 0), (5, 3): (2, 1), (5, 7): (2, 0),
        (6, 5): (2, 0), (7, 2): (2, 0), (7, 3): (2, 0),
    }
    alt_orders = {4: 12, 5: 60, 6: 360, 7: 2520}
    for (n, p), (bound, frozen) in table.items():
        rep = cohomology_of_Ip(GroupSpec("A", n), p)
        if rep.dim_H1 > bound:
            failures.append(f"H1(A{n}, I_{p}) = {rep.dim_H1} > {bound}")
        if rep.dim_H1 != frozen:
            failures.append(f"H1(A{n}, I_{p}) = {rep.dim_H1} != frozen {frozen}")
        if alt_orders[n] % p and rep.dim_H1 != 0:
            failures.append(f"H1(A{n}, I_{p}) nonzero despite p coprime to |A{n}|")
    with capsys.disabled():
        _report(8, "cocycle dimensions within bounds, coprime cases vanish", failures, t0, 300)


def test_acceptance_09_abelianization_cross_check(capsys):
    t0 = time.monotonic()
    failures = []
    primes = [2, 3, 5, 7, 11, 13]
    checked = 0
    for t in _towers(_POOL, range(1, 6), lambda g: not g.is_cyclic()):
        if t.leaf_count() > 60:
            continue
        symbolic = abelianization(t.levels)
        computed = abelian_p_ranks(tower_group(t), primes)
        for p in primes:
            if symbolic.get(p, 0) != computed[p]:
                failures.append(f"{t.text()} p={p}: {symbolic.get(p, 0)} != {computed[p]}")
        checked += 1
    with capsys.disabled():
        _report(9, f"abelianization ranks match on {checked} leaf groups, p <= 13",
                failures, t0, 300)


def test_acceptance_10_property_suites(capsys):
    t0 = time.monotonic()
    failures = []

    # BSGS order equals the exhaustive element count
    for degree, cycles in [(7, ("(1 2)", "(1 2 3 4 5 6 7)")),
                           (5, ("(1 2 3)", "(1 2 3 4 5)"))]:
        g = PermGroup.from_cycles(degree, *cycles)
        if len(cayley_walk(degree, g.generators)[0]) != g.order():
            failures.append(f"count != order on degree {degree}")
    for text in ("C2;C2;C2", "A4;C3", "C3;C2;C2"):
        g = tower_group(parse_tower(text))
        if len(cayley_walk(g.degree, g.generators)[0]) != g.order():
            failures.append(f"count != order on {text}")

    # generators and their products preserve the block structure
    t = parse_tower("S3;C2;C2")
    gens = tower_generators(t)
    word = gens[0] * gens[1] * gens[2] * gens[1]
    x, y = example_generators(5)
    for label, tower, autos in (("block preservation failed", t, gens + [word]),
                                ("example pair broke blocks", example_tower(5), [x, y])):
        try:  # project() raises when a level's blocks are not kept
            for a in autos:
                for level in range(1, tower.k):
                    project(tower, a, level)
        except ValueError:
            failures.append(label)

    # actions hung at disjoint vertices commute
    t2 = parse_tower("C3;S3;C2")
    swap = parse_cycles("(1 2)", 2)
    rot = parse_cycles("(1 2 3)", 3)
    pairs = [((1,), rot, (2,), rot), ((1,), rot, (3,), rot),
             ((1, 1), swap, (1, 2), swap), ((2, 3), swap, (3, 1), swap)]
    for v1, s1, v2, s2 in pairs:
        a, b = apply_at_vertex(t2, v1, s1), apply_at_vertex(t2, v2, s2)
        if a * b != b * a:
            failures.append(f"actions at {v1} and {v2} do not commute")

    # oracle witnesses regenerate the group; fixed seeds reproduce results
    for text in ("S3;C2", "C2;S3", "A4;C3"):
        t = parse_tower(text)
        r = min_generators(t, seed=1, attempts=200)
        if PermGroup(t.leaf_count(), r.witness).order() != t.order():
            failures.append(f"witness failed on {text}")
        if min_generators(t, seed=1, attempts=200).to_json() != r.to_json():
            failures.append(f"seed 1 not reproducible on {text}")

    with capsys.disabled():
        _report(10, "order counts, blocks, commutation, witnesses, determinism",
                failures, t0, 300)


def test_cli_verify_binds_formula_to_oracle(capsys):
    # the same agreement the suite tests above, reachable from the shell
    code = cli_main(["verify", "--tower", "A5;C3;C2;C2"])
    out = capsys.readouterr().out
    assert code == 0 and '"agree": true' in out
