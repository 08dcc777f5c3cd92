"""F_p module structure, endomorphisms, fixed points and 1-cocycle counts.

H^1 dimensions marked "solver-derived" were produced by the cocycle
walker itself and then validated independently: the C_3 values are
textbook, and the A_5 values follow from injective restriction to a
Sylow subgroup (I_2 restricted to V_4 and I_3 restricted to C_3 are
regular-plus-trivial, pinning H^1 to 0 and at most 1).
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cocycle_reference
import dense
import endomorphism_reference
from wreathgen import modfp
from wreathgen.modfp import (
    FpModule,
    IpReport,
    RowSpace,
    alt_group,
    aug_submodule,
    check_Ip_structure,
    cocycle_dims,
    cocycle_entries,
    cohomology_of_Ip,
    endomorphism_dim,
    fixed_points,
    h_param,
    presentation,
    spin,
)
from wreathgen.permcore import (BadInput, BudgetExceeded, ConsistencyError, PermGroup,
                                Permutation, derived_subgroup, parse_cycles)
from wreathgen.wreath import (GroupSpec, parse_group, parse_tower, standard_generators,
                              tower_group)


def test_rowspace_rank_and_reduction():
    s = RowSpace(5, 3)
    assert s.insert([(0, 1), (1, 2), (2, 3)])
    assert s.insert([(1, 1), (2, 1)])
    assert not s.insert([(0, 1), (1, 3), (2, 4)])  # sum of the first two
    assert s.dim == 2
    assert s.contains([(0, 2), (1, 4), (2, 1)]) and not s.contains([(2, 1)])
    m = dense.rows(s)
    assert [len(r) for r in m] == [3, 3] and list(s.pivots) == [0, 1]
    # rows stay fully reduced
    assert m[0][1] == 0


def _rref_reference(rows, p):
    """Textbook Gauss-Jordan elimination over F_p, one row operation at a
    time: the canonical rows and pivot columns of the row space."""
    m = [[int(x) % p for x in r] for r in rows]
    width = len(m[0]) if m else 0
    pivots = []
    for c in range(width):
        r = len(pivots)
        found = [i for i in range(r, len(m)) if m[i][c]]
        if not found:
            continue
        m[r], m[found[0]] = m[found[0]], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


# 1518500213 is the last prime p with 4 (p - 1)^2 + p - 1 below 2^63, and
# 2^31 - 1 the largest p a module admits.  The rows use their first `used`
# columns of `width`: a space's width is given, since terms do not carry it
_matrices = st.tuples(st.sampled_from([2, 3, 5, 7, 1518500213, 2 ** 31 - 1]),
                      st.integers(1, 9), st.integers(0, 3)).flatmap(
    lambda pwz: st.tuples(st.just(pwz[0]), st.just(pwz[1] + pwz[2]), st.lists(
        st.lists(st.integers(-2 * pwz[0], 2 * pwz[0]), min_size=pwz[1], max_size=pwz[1])
        .map(lambda row, zeros=pwz[2]: row + [0] * zeros),
        max_size=14)))


@settings(max_examples=300, deadline=None)
@given(_matrices)
def test_span_and_inserts_give_the_reference_rref(case):
    p, width, rows = case
    want_rows, want_pivots = _rref_reference(rows, p)
    batched = dense.span(rows, p, width)
    assert (dense.rows(batched), batched.pivots) == (want_rows, want_pivots)
    one_by_one = RowSpace(p, width)
    for i, row in enumerate(rows):
        rank, before = len(_rref_reference(rows[:i + 1], p)[1]), one_by_one.dim
        assert one_by_one.insert(dense.to_terms(row, p)) == (rank > before)
        assert one_by_one.dim == rank
    assert (dense.rows(one_by_one), one_by_one.pivots) == (want_rows, want_pivots)
    assert all(len(r) == width for r in dense.rows(batched) + dense.rows(one_by_one))


@settings(max_examples=300, deadline=None)
@given(_matrices, st.data())
def test_contains_and_the_shared_reduction_match_the_reference(case, data):
    p, width, rows = case
    space = dense.span(rows, p, width)
    basis, pivots = _rref_reference(rows, p)
    # the sparse rows are the reference rows' nonzero entries, none 0 mod p
    assert space._rows == {piv: {j: x for j, x in enumerate(row) if x}
                           for piv, row in zip(pivots, basis)}

    def in_space(v):
        return len(_rref_reference(basis + [v], p)[1]) == len(pivots)

    entries = st.integers(-2 * p, 2 * p)
    vectors = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=3))
    # members too, which a draw at a large p almost never is
    combinations = st.lists(st.lists(entries, min_size=len(rows), max_size=len(rows)), max_size=3)
    vectors += [[sum(c * row[j] for c, row in zip(cs, rows)) for j in range(width)]
                for cs in data.draw(combinations)]
    for v in vectors:
        assert space.contains(dense.to_terms(v, p)) == in_space(v)
        # v mod p less the multiples of the rows that clear it at every
        # pivot: what is left lies off the pivots, and v less it in the space
        residue = space._reduce(dense.to_terms(v, p))
        assert all(0 < x < p and j not in pivots for j, x in residue.items())
        assert in_space([x - residue.get(j, 0) for j, x in enumerate(v)])
        assert (not residue) == in_space(v)


def _spin_reference(mod, seeds):
    """Round-robin spinning on the reference RREF: multiply the whole basis
    by every generator until a round adds nothing."""
    rows, pivots = _rref_reference(seeds, mod.p)
    while True:
        images = [(np.array(r) @ a).tolist() for a in dense.matrices(mod) for r in rows]
        grown, grown_pivots = _rref_reference(rows + images, mod.p)
        if len(grown) == len(rows):
            return rows, pivots
        rows, pivots = grown, grown_pivots


def _honest_rule(mod, candidates):
    """A stop rule that holds exactly for the nonzero multiples of those
    candidates whose plain spin was computed and is everything."""
    p = mod.p
    whole = {tuple(c * x % p for x in v) for v in candidates for c in range(1, p)
             if spin(mod, [v]).dim == mod.dim}
    return lambda w: tuple(w) in whole


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4, 2), (4, 3), (5, 2), (5, 5), (6, 3), (7, 7)]),
       st.booleans(), st.data())
def test_worklist_spin_matches_round_robin_spin(case, restrict, data):
    n, p = case
    mod = FpModule.natural(alt_group(n), p)
    if restrict:  # generic action matrices, not 0/1 permutation matrices
        mod = mod.restricted(aug_submodule(mod))
    vectors = st.lists(st.integers(0, p - 1), min_size=mod.dim, max_size=mod.dim)
    seeds = data.draw(st.lists(vectors, min_size=1, max_size=2))
    sub = spin(mod, seeds)
    rows, pivots = _spin_reference(mod, seeds)
    assert (dense.rows(sub), sub.pivots) == (rows, pivots)
    assert (sub.p, sub.width) == (mod.p, mod.dim)
    # a stop rule built from spins that were computed changes nothing;
    # the seeds' images are candidates, so the rule often fires
    images = [(np.array(s) @ a % p).tolist() for s in seeds for a in dense.matrices(mod)]
    candidates = images + data.draw(st.lists(vectors, max_size=3))
    stopped = spin(mod, seeds, _honest_rule(mod, candidates))
    assert (dense.rows(stopped), stopped.pivots) == (rows, pivots)


def test_natural_rows_are_single_terms_that_compose_as_the_right_action():
    # row a of P_g is the one term (g(a), 1), and _times composes the rows
    # as P_gh = P_g P_h
    g, h = parse_cycles("(1 2 3)", 4), parse_cycles("(2 3 4)", 4)
    p = 5
    pg, ph, pgh = FpModule.natural(PermGroup(4, [g, h, g * h]), p).terms
    assert all(pg[a] == [(g(a), 1)] and ph[a] == [(h(a), 1)] for a in range(4))
    # v e_1 moved to coordinate g(1) = 2
    assert modfp._times([(0, 3)], pg, p) == [(1, 3)]
    assert [modfp._times(row, ph, p) for row in pg] == pgh
    v = [(0, 3), (1, 1), (3, 4)]
    assert dict(modfp._times(modfp._times(v, pg, p), ph, p)) == dict(modfp._times(v, pgh, p))


def test_aug_submodule():
    mod = FpModule.natural(alt_group(5), 2)
    ip = aug_submodule(mod)
    assert ip.dim == 4
    assert ip.contains([(0, 1), (1, 1)])
    assert not ip.contains([(0, 1), (1, 1), (2, 1)])
    # stable under the action
    for a in dense.matrices(mod):
        for row in dense.rows(ip):
            assert ip.contains(dense.to_terms(np.array(row) @ a, 2))


def test_spin_of_first_basis_vector_is_everything():
    for n, p in [(4, 2), (5, 3), (6, 2)]:
        mod = FpModule.natural(alt_group(n), p)
        e1 = [1] + [0] * (n - 1)
        assert spin(mod, [e1]).dim == n


def test_spin_inside_aug_submodule():
    mod = FpModule.natural(alt_group(5), 3)
    sub = spin(mod, [[1, -1, 0, 0, 0]])
    assert sub.dim == 4
    assert sub.contains(dense.to_terms([0, 1, -1, 0, 0], 3))


def test_restricted_is_exact_at_the_largest_prime():
    # v a = 2 v, and an entry of b a sums four products near 2^62, which
    # overflow int64 when they are added before they are reduced
    p = 2 ** 31 - 1
    v = [1, -1, -1, -1]
    m = dense.module(p, 4, [(np.outer([p - 1] * 4, v) % p).tolist()])
    line = spin(m, [v])
    assert line.dim == 1
    assert m.restricted(line).terms[0] == [[(0, 2)]]


def test_fixed_points_are_the_constants():
    for n, p in [(4, 2), (5, 2), (5, 3), (7, 3)]:
        mod = FpModule.natural(alt_group(n), p)
        assert fixed_points(mod) == 1
        ip = aug_submodule(mod)
        # constants lie in I_p exactly when p | n
        assert fixed_points(mod.restricted(ip)) == (1 if n % p == 0 else 0)


def test_endomorphism_dims():
    g, relators = _presented("A4")
    mod = FpModule.natural(g, 3)
    assert endomorphism_dim(mod) == 2  # V = I_3 + constants, two projections
    ip = mod.restricted(aug_submodule(mod))
    assert endomorphism_dim(ip) == 1
    # r is the module's dimension when End is scalar, and unset otherwise
    assert cocycle_dims(g, relators, 3).r == ip.dim == 3
    assert cocycle_reference.cocycle_dims(g, mod, relators).r is None


def _inverse_mod(t, p):
    """The inverse of a square matrix over F_p by Gauss-Jordan elimination
    on Python ints, or None if it is singular."""
    k = len(t)
    rows = [[x % p for x in row] + [int(i == j) for j in range(k)] for i, row in enumerate(t)]
    for c in range(k):
        i = next((i for i in range(c, k) if rows[i][c]), None)
        if i is None:
            return None
        rows[c], rows[i] = rows[i], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for i in range(k):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return [row[k:] for row in rows]


def _conjugated(m, t):
    """m in the basis t: each action matrix A becomes t A t^-1, so its
    entries are dense; products are taken on Python ints."""
    p = m.p
    t_obj = np.array(t, dtype=object)
    t_inv = np.array(_inverse_mod(t, p), dtype=object)
    return dense.module(p, m.dim, [(t_obj @ np.array(a, dtype=object) @ t_inv % p).tolist()
                                   for a in dense.matrices(m)])


def _direct_sum(m1, m2):
    k1, k2 = m1.dim, m2.dim
    mats = []
    for a, b in zip(dense.matrices(m1), dense.matrices(m2)):
        c = np.zeros((k1 + k2, k1 + k2), dtype=np.int64)
        c[:k1, :k1], c[k1:, k1:] = a, b
        mats.append(c.tolist())
    return dense.module(m1.p, k1 + k2, mats)


END_PRIMES = [2, 3, 5, 7, 1518500213, 2 ** 31 - 1]


@st.composite
def _modules(draw):
    """Natural and I_p modules of A_n, S_n and C_n (n <= 9), direct sums of
    two of them (n <= 6), so that two seeds are needed, and trivial
    actions, which need one seed per dimension; each perhaps conjugated by
    a random invertible matrix."""
    p = draw(st.sampled_from(END_PRIMES))
    kind = draw(st.sampled_from("ASC"))
    shape = draw(st.sampled_from(["simple", "sum", "trivial"]))
    n = draw(st.integers(3, 6 if shape == "sum" else 9))
    g = PermGroup(n, standard_generators(GroupSpec(kind, n)))

    def simple():
        mod = FpModule.natural(g, p)
        return mod.restricted(aug_submodule(mod)) if draw(st.booleans()) else mod

    if shape == "simple":
        mod = simple()
    elif shape == "sum":
        mod = _direct_sum(simple(), simple())
    else:
        k = draw(st.integers(1, 6))
        mod = dense.module(p, k, [np.eye(k, dtype=int).tolist() for _ in g.generators])
    if draw(st.booleans()):
        # L U with L unit lower and U unit upper triangular is invertible
        k = mod.dim
        entries = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
        x = draw(st.lists(entries, min_size=k, max_size=k))
        lower = np.array([[x[i][j] if j < i else int(i == j) for j in range(k)]
                          for i in range(k)], dtype=object)
        upper = np.array([[x[i][j] if j > i else int(i == j) for j in range(k)]
                          for i in range(k)], dtype=object)
        mod = _conjugated(mod, (lower @ upper % p).tolist())
    return mod


@settings(max_examples=150, deadline=None)
@given(_modules())
def test_endomorphism_dim_matches_the_commutation_system(mod):
    assert endomorphism_dim(mod) == endomorphism_reference.endomorphism_dim(mod)


@pytest.mark.parametrize("kind", "ASC")
def test_endomorphism_dim_matches_the_commutation_system_on_every_small_module(kind):
    # every natural and I_p module for n <= 9 and p <= 7, and the sum of
    # C3's two over F_2, whose second seed's relation links the summands;
    # dropping the first relation's equations is wrong on I_2 of S4, the
    # last one's on the sum
    for n in range(3, 10):
        g = PermGroup(n, standard_generators(GroupSpec(kind, n)))
        for p in (2, 3, 5, 7):
            nat = FpModule.natural(g, p)
            ip = nat.restricted(aug_submodule(nat))
            mods = [nat, ip] + ([_direct_sum(nat, ip)] if (kind, n, p) == ("C", 3, 2) else [])
            for mod in mods:
                assert endomorphism_dim(mod) == endomorphism_reference.endomorphism_dim(mod)


@pytest.mark.parametrize("kind,n,end", [("S", 6, 1), ("C", 7, 6)])
def test_endomorphism_dim_is_exact_at_the_largest_prime(kind, n, end):
    # I_p conjugated by a dense invertible matrix: a product of two entries
    # is near 2^62, and int64 sums of them overflow
    p = 2 ** 31 - 1
    rng = np.random.default_rng(n)
    mod = FpModule.natural(PermGroup(n, standard_generators(GroupSpec(kind, n))), p)
    mod = mod.restricted(aug_submodule(mod))
    t = rng.integers(0, p, size=(n - 1, n - 1)).tolist()
    assert _inverse_mod(t, p) is not None
    mod = _conjugated(mod, t)
    assert endomorphism_dim(mod) == endomorphism_reference.endomorphism_dim(mod) == end


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_aug_submodule_is_the_span_of_the_differences(n, p):
    ip = aug_submodule(FpModule(p, n, []))
    diffs = np.eye(n - 1, n, dtype=np.int64) - np.eye(n - 1, n, k=1, dtype=np.int64)
    span = dense.span(diffs.tolist(), p, n)
    assert (dense.rows(ip), ip.pivots, ip.p, ip.width) == (dense.rows(span), span.pivots, p, n)


@pytest.mark.parametrize("n,p,checked", [(4, 2, 8), (5, 5, 2500), (6, 2, 32)])
def test_Ip_unique_maximal_when_p_divides_n(n, p, checked):
    r = check_Ip_structure(n, p)
    assert r.status == "verified" and r.p_divides_n
    assert r.unique_maximal is True
    assert r.checked_vectors == checked
    assert r.irreducible is None


@pytest.mark.parametrize("n,p,checked", [(4, 3, 26), (5, 3, 80), (7, 2, 63)])
def test_Ip_irreducible_when_p_prime_to_n(n, p, checked):
    r = check_Ip_structure(n, p)
    assert r.status == "verified" and not r.p_divides_n
    assert r.direct_sum is True and r.irreducible is True
    assert r.end_dim == 1 and r.r == n - 1
    assert r.checked_vectors == checked


def test_Ip_budget_reports_unverified():
    r = check_Ip_structure(25, 2)  # 2^24 - 1 vectors to spin
    assert r.status == "unverified"
    assert r.unique_maximal is None and r.irreducible is None


def test_Ip_rejects_tiny_n():
    with pytest.raises(ValueError):
        check_Ip_structure(3, 2)


BAD_PRIMES = [(1, "p must be prime"), (4, "p must be prime"),
              (2 ** 31 + 11, "p must be below 2^31")]


@pytest.mark.parametrize("p,message", BAD_PRIMES)
def test_Ip_rejects_a_p_that_is_not_a_prime_below_2_31(p, message):
    with pytest.raises(ValueError) as exc:
        check_Ip_structure(4, p)
    assert str(exc.value) == message


def _check_Ip_reference(n, p):
    """check_Ip_structure without the stop rule: the same scan order, one
    plain spin per vector and the same break at the first failure."""
    mod = FpModule.natural(modfp.alt_group(n), p)
    ip = aug_submodule(mod)
    checked, ok = 0, True
    if n % p == 0:
        for vec in itertools.product(range(p), repeat=n):
            if sum(vec) % p:
                checked += 1
                if spin(mod, [vec]).dim != n:
                    ok = False
                    break
        return IpReport(n, p, ip.dim, True, "verified", checked, unique_maximal=ok)
    sub = mod.restricted(ip)
    for coeff in itertools.product(range(p), repeat=n - 1):
        if any(coeff):
            checked += 1
            if spin(sub, [coeff]).dim != n - 1:
                ok = False
                break
    end = endomorphism_dim(sub)
    return IpReport(n, p, ip.dim, False, "verified", checked,
                    direct_sum=not ip.contains(dense.to_terms([1] * n, p)) and ip.dim + 1 == n,
                    irreducible=ok, end_dim=end, r=(n - 1) if end == 1 else None)


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (4, 5), (5, 2), (5, 3), (5, 5),
                                 (6, 2), (6, 3), (7, 2), (7, 3), (6, 5), (8, 3)])
def test_Ip_check_matches_the_plain_scan(n, p):
    assert check_Ip_structure(n, p) == _check_Ip_reference(n, p)


@pytest.mark.parametrize("n,p", [(8, 3), (6, 5), (5, 5)])
def test_only_the_first_vector_of_a_scan_spins_to_the_end(monkeypatch, n, p):
    # a spin that meets the stop rule returns RowSpace.whole; once the
    # first vector has spun to everything, its basis rows reach the rule
    whole = RowSpace.whole
    stopped = []
    monkeypatch.setattr(RowSpace, "whole",
                        classmethod(lambda cls, *args: stopped.append(args) or whole(*args)))
    r = check_Ip_structure(n, p)
    assert r.checked_vectors - len(stopped) == 1


def test_a_stopped_spin_returns_one_whole_space_that_an_insert_leaves_alone():
    mod = FpModule.natural(alt_group(5), 3)
    whole = spin(mod, [[1, 0, 0, 0, 0]], known=lambda w: True)
    assert spin(mod, [[0, 2, 0, 1, 0]], known=lambda w: True) is whole
    assert not whole.insert(dense.to_terms([1, 2, 0, 1, 1], 3))
    fresh = RowSpace(3, 5)
    for row in np.eye(5, dtype=np.int64).tolist():
        fresh.insert(dense.to_terms(row, 3))
    assert (dense.rows(whole), whole.pivots) == (dense.rows(fresh), fresh.pivots)


@pytest.mark.parametrize("n,p,cycles,checked", [
    # x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1) over F_2, so I_2 under
    # the 7-cycle is the sum of two 3-dimensional submodules; coordinates
    # (0, 0, 1, 0, 1, 1), the 11th, give e_3 + e_5 + e_6 + e_7, which is
    # x^2 (x + 1)(x^3 + x + 1)
    (7, 2, ["(1 2 3 4 5 6 7)"], 11),
    # a group that fixes the point 6: e_6 spins to itself
    (6, 3, ["(1 2 3)", "(1 2 3 4 5)"], 1),
    # x^6 - 1 = (x - 1)^3 (x + 1)^3 over F_3: the vectors of alternating
    # sum 0 form a second maximal submodule, which (0, 0, 0, 0, 1, 1) is
    # the first vector outside I_3 to lie in
    (6, 3, ["(1 2 3 4 5 6)"], 4),
    # x^6 - 1 = (x - 1)(x + 1)(x^2 + x + 1)(x^2 - x + 1) over F_5; coordinates
    # (0, 0, 0, 1, 0), the 5th, give e_4 - e_6, which is -x^3 (x - 1)(x + 1)
    # and spins to a 4-dimensional submodule
    (6, 5, ["(1 2 3 4 5 6)"], 5),
    # two cases where the stop rule must refuse a vector of I_p that comes
    # first (without its class test the scan reports True at 32 and 486).
    # C2 wr C3 on the blocks {1, 2}, {3, 4}, {5, 6}: x1 + x2 = x3 + x4 =
    # x5 + x6 is a submodule outside I_2, (0, 1, 0, 1, 0, 1) the 11th
    # vector in it, and its spin holds e5 + e6 of I_2
    (6, 2, ["(1 3 5)(2 4 6)", "(1 2)"], 11),
    # C3 wr C2 on {1, 2, 3}, {4, 5, 6}: x1 + x2 + x3 = x4 + x5 + x6 is a
    # submodule outside I_3, (0, 0, 1, 0, 0, 1) the 20th vector in it
    (6, 3, ["(1 4)(2 5)(3 6)", "(1 2 3)"], 20),
])
def test_a_reducible_module_is_still_caught(monkeypatch, n, p, cycles, checked):
    monkeypatch.setattr(modfp, "alt_group", lambda n: PermGroup.from_cycles(n, *cycles))
    r = check_Ip_structure(n, p)
    assert (r.irreducible if n % p else r.unique_maximal) is False
    assert r.checked_vectors == checked
    assert r == _check_Ip_reference(n, p)


# --- cocycles ---------------------------------------------------------------

def _presented(token):
    """The group of `token` on its presentation's letters, and the relators."""
    spec = parse_group(token)
    letters, relators = presentation(spec)
    return PermGroup(spec.n, letters, spec.order()), relators


def _ip(g, p):
    mod = FpModule.natural(g, p)
    return mod.restricted(aug_submodule(mod))


def _constraints(g, p, relators):
    """The span of the relator equations on I_p, from which cocycle_dims
    counts Z^1."""
    return RowSpace.span(modfp._relator_equations(g.generators, relators, p), p,
                         len(g.generators) * (g.degree - 1))


def _reference_constraints(g, mod, relators):
    """The same span for any module of g, by matrix products."""
    return RowSpace.span(cocycle_reference.relator_equations(g, mod, relators), mod.p,
                         len(g.generators) * mod.dim)


def test_cocycles_cyclic_trivial_module():
    ones = [[1]]
    c3, relators = _presented("C3")
    rep = cocycle_reference.cocycle_dims(c3, dense.module(3, 1, [ones]), relators)
    assert (rep.dim_Z1, rep.dim_B1, rep.dim_H1) == (1, 0, 1)
    rep = cocycle_reference.cocycle_dims(c3, dense.module(2, 1, [ones]), relators)
    assert (rep.dim_Z1, rep.dim_B1, rep.dim_H1) == (0, 0, 0)


@pytest.mark.parametrize("n,p,h1", [
    # solver-derived, cross-validated as described in the module docstring
    (4, 3, 0), (4, 5, 0), (4, 7, 0),
    (5, 2, 0), (5, 3, 1), (5, 7, 0),
    (6, 5, 0),
])
def test_cocycle_dims_on_aug_submodules(n, p, h1):
    rep = cohomology_of_Ip(GroupSpec("A", n), p)
    assert rep.dim_H1 == h1
    assert rep.dim == n - 1 and rep.r == n - 1
    assert rep.group_order == alt_group(n).order()
    assert rep.dim_B1 == (n - 1) - (1 if n % p == 0 else 0)


def test_a_negative_h1_is_a_consistency_error(monkeypatch):
    # A5 on I_2 has H^1 = 0 and no fixed points; one fixed point too few
    # makes B^1 larger than Z^1
    monkeypatch.setattr(modfp, "fixed_points", lambda m: -1)
    with pytest.raises(ConsistencyError, match="negative H\\^1 dimension"):
        cohomology_of_Ip(parse_group("A5"), 2)


def test_cocycle_vanishes_in_coprime_characteristic():
    for n, p in [(4, 5), (4, 7), (5, 7), (5, 11)]:
        assert cohomology_of_Ip(GroupSpec("A", n), p).dim_H1 == 0


def test_inner_derivations_satisfy_the_constraints():
    g, relators = _presented("A5")
    p = 3
    restricted = _ip(g, p)
    constraints = _constraints(g, p, relators)
    rng = np.random.default_rng(17)
    eye = np.eye(restricted.dim, dtype=np.int64)
    for _ in range(10):
        a = rng.integers(0, p, restricted.dim)
        u = np.concatenate([(a @ (eye - m)) % p for m in dense.matrices(restricted)])
        assert (np.array(dense.rows(constraints)) @ u % p == 0).all()


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cocycle_system_does_not_depend_on_the_edge_block(monkeypatch, n, p):
    # the walk of the reference folds its equations into the basis a block
    # of edges at a time; neither the block nor the method moves a row of
    # the reduced constraints
    g, words = _presented(f"A{n}")
    restricted = _ip(g, p)
    whole, order = cocycle_reference.cocycle_system(g, restricted)
    monkeypatch.setattr(cocycle_reference, "EDGE_BLOCK", 1)
    single, _ = cocycle_reference.cocycle_system(g, restricted)
    relators = _constraints(g, p, words)
    assert single.pivots == whole.pivots == relators.pivots
    assert dense.rows(single) == dense.rows(whole) == dense.rows(relators)
    assert order == g.order()


_spec = importlib.util.spec_from_file_location(
    "coset_orders", Path(__file__).resolve().parent.parent / "tools" / "coset_orders.py")
coset_orders = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coset_orders)


@pytest.mark.parametrize("spec", [GroupSpec("S", n) for n in (3, 4, 5)]
                         + [GroupSpec("A", n) for n in (4, 5)]
                         + [GroupSpec("C", n) for n in (2, 5, 12)], ids=GroupSpec.token)
def test_coset_enumeration_gives_the_order_of_each_presentation(spec):
    # the theorems presentation() cites, checked where sympy's Todd-Coxeter
    # takes under a second; tools/coset_orders.py runs n = 6 and 7 in CI
    assert coset_orders.presented_order(spec) == spec.order()


def _end_entries(n):
    """The part of cocycle_entries that does not count relator letters:
    C_n's presentation is the one word t^n."""
    assert presentation(GroupSpec("C", n))[1] == [[0] * n]
    return cocycle_entries(GroupSpec("C", n)) - 2 * (n - 1) * n


def test_every_admitted_presentation_holds_and_has_its_counted_size():
    # cocycle_entries counts 2k entries for each letter of a closed-form
    # bound on the words' total length, n for C_n and n^2/2 + 6n + 4 for
    # S_n and A_n, which Moore's words meet at every even n; checked to
    # n = 200 against the words presentation() builds.  The relators are
    # the identity on their letters to n = 78 here, and cohomology_of_Ip
    # checks it on every group it evaluates
    for kind, lo in (("A", 4), ("S", 3), ("C", 2)):
        for n in range(lo, 201):
            spec = GroupSpec(kind, n)
            letters, relators = presentation(spec)
            length = sum(map(len, relators))
            counted, k = cocycle_entries(spec) - _end_entries(n), n - 1
            assert counted >= 2 * k * length, spec.token()
            if kind == "S" and n % 2 == 0:
                assert counted == 2 * k * length, spec.token()
        for n in range(lo, 79):
            spec = GroupSpec(kind, n)
            letters, relators = presentation(spec)
            for word in relators:
                value = Permutation.identity(n)
                for x in word:
                    value = value * (letters[x] if x >= 0 else letters[~x].inverse())
                assert value.is_identity(), (spec.token(), word)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_e0_spins_to_all_of_ip_under_each_presented_group(p):
    # cocycle_entries counts End's rows for one seed: the first unit
    # vector of I_p's basis, e_0 - e_(n-1), spins to all of I_p
    for kind, lo in (("S", 4), ("A", 4), ("C", 2)):
        for n in range(lo, 41):
            sub = _ip(PermGroup(n, presentation(GroupSpec(kind, n))[0]), p)
            assert spin(sub, [[1] + [0] * (n - 2)]).dim == n - 1, (kind, n)
    # <(2 3)> fixes points 1 and 4, so e_0 - e_3 spans a submodule alone
    assert spin(_ip(PermGroup.from_cycles(4, "(2 3)"), p), [[1, 0, 0]]).dim == 1


@pytest.mark.parametrize("token", ["S5", "C6"])
def test_a_relator_that_does_not_hold_is_refused_before_the_chain(monkeypatch, token):
    # t^(n-1) in place of t^n, the power of the letter (1 2 .. n)
    spec = parse_group(token)
    letters, relators = presentation(spec)
    power = [len(letters) - 1] * spec.n
    planted = [w[:-1] if w == power else w for w in relators]
    assert planted != relators
    monkeypatch.setattr(modfp, "presentation", lambda s: (letters, planted))
    monkeypatch.setattr(PermGroup, "bsgs", _refuse)
    with pytest.raises(ConsistencyError, match="a relator is not the identity on its letters"):
        cohomology_of_Ip(spec, 2)


# every group the walk's budget admitted up to A7, S7 and C37, at five
# primes, and A8 and S8 at two
REFERENCE_CASES = ([(f"{kind}{n}", (2, 3, 5, 7, 11)) for kind, ns in
                    [("A", range(3, 8)), ("S", range(3, 8)), ("C", range(2, 38))] for n in ns]
                   + [("A8", (2, 3)), ("S8", (2, 3))])


@pytest.mark.parametrize("token,primes", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_relators_give_the_walks_constraints(token, primes):
    g, words = _presented(token)
    for p in primes:
        walked, order = cocycle_reference.cocycle_system(g, _ip(g, p))
        relators = _constraints(g, p, words)
        assert (dense.rows(relators), relators.pivots) == (dense.rows(walked), walked.pivots), p
        assert order == g.order()


# every admitted group to degree 12, and three larger degrees of each kind
LIBRARY_CASES = [f"{kind}{n}" for kind, lo in (("A", 4), ("S", 3), ("C", 2))
                 for n in [*range(lo, 13), 20, 32, 40]]


@pytest.mark.parametrize("token", LIBRARY_CASES)
def test_relator_rows_from_permutations_equal_the_references(token):
    # the rows written from permutations, on I_p alone, are the rows the
    # reference forms by matrix products over the module, row for row, so
    # their spans are equal too
    g, words = _presented(token)
    for p in (2, 3, 5, 2 ** 31 - 1):
        library = modfp._relator_equations(g.generators, words, p)
        reference = cocycle_reference.relator_equations(g, _ip(g, p), words)
        assert [dict(r) for r in library] == [dict(r) for r in reference], p


def _h1_closed_form(spec, p):
    """dim H^1(G, I_p) for G = S_n, A_n or C_n in its natural action, from
    the long exact sequence of 0 -> I_p -> F_p^n -> F_p -> 0 and Shapiro's
    lemma (Brown, Cohomology of Groups, III.6 and III.9):
    [p | n] + [G = S_n, p = 2, n even] + [G = A_5, p = 3]."""
    n, kind = spec.n, spec.kind
    return (n % p == 0) + (kind == "S" and p == 2 and n % 2 == 0) + (kind == "A" and n == 5
                                                                     and p == 3)


H1_CASES = [GroupSpec(kind, n) for kind, lo in (("A", 4), ("S", 3), ("C", 2))
            for n in range(lo, 21)]


@pytest.mark.parametrize("spec", H1_CASES, ids=GroupSpec.token)
def test_h1_of_ip_meets_its_closed_form(spec):
    # past n = 7 coset enumeration stops, and this is the guard on
    # presentation(): a missing relator makes H^1 too large
    for p in (2, 3, 5, 7):
        assert cohomology_of_Ip(spec, p).dim_H1 == _h1_closed_form(spec, p), p


def test_a5_without_b_cubed_misses_the_closed_form_at_2(monkeypatch):
    spec = parse_group("A5")
    letters, relators = presentation(spec)
    assert relators[1] == [1] * 3 and cohomology_of_Ip(spec, 2).dim_H1 == 0
    monkeypatch.setattr(modfp, "presentation", lambda s: (letters, relators[:1] + relators[2:]))
    assert cohomology_of_Ip(spec, 2).dim_H1 > _h1_closed_form(spec, 2)


@pytest.mark.parametrize("token,p", [("A5", 7), ("A6", 3), ("S4", 5), ("C6", 5)])
def test_each_relators_equations_give_its_cocycle_value(token, p):
    # for letter images u that need not extend to a derivation, the k
    # equations of a relator w give delta(w), carried left to right by
    # delta(xy) = delta(x) M_y + delta(y) and delta(x^-1) = -delta(x) M_{x^-1};
    # u runs over the unit vectors, so the equations must be the rows of
    # u -> delta(w) that do not vanish, in order; equations that only span
    # the same constraints would not be
    spec = parse_group(token)
    letters, relators = presentation(spec)
    g = PermGroup(spec.n, letters, spec.order())
    ngens, k = len(letters), spec.n - 1
    both = _ip(PermGroup(spec.n, list(letters) + [x.inverse() for x in letters]), p)
    mats = [np.array(a) for a in dense.matrices(both)]  # M_x, then M_{x^-1}
    mod = _ip(g, p)
    for word in relators:
        columns = []
        for u in np.eye(ngens * k, dtype=np.int64).reshape(-1, ngens, k):
            value = np.zeros(k, dtype=np.int64)
            for x in word:
                m = mats[x] if x >= 0 else mats[ngens + ~x]
                value = (value @ m + (u[x] if x >= 0 else -u[~x] @ m)) % p
            columns.append(value)
        expected = [row for row in np.array(columns).T.tolist() if any(row)]
        for equations in (cocycle_reference.relator_equations(g, mod, [word]),
                          modfp._relator_equations(letters, [word], p)):
            assert [dense.to_dense(r, ngens * k) for r in equations] == expected, word


def test_dropping_one_relator_of_a4_raises_z1_at_2():
    # on A4 at p = 2, a^3 and (ab)^3 each carry a constraint that the
    # other three relators do not
    g, relators = _presented("A4")
    assert cocycle_dims(g, relators, 2).dim_Z1 == 3
    dims = [_constraints(g, 2, relators[:i] + relators[i + 1:]).dim
            for i in range(len(relators))]
    assert [2 * 3 - d for d in dims] == [4, 3, 4, 3]


def test_dropping_b_power_from_a5_leaves_the_walks_span():
    # b^3 is needed at every prime the walk checks: without it the span
    # of the constraints falls short of the walk's
    g, relators = _presented("A5")
    assert relators[1] == [1] * 3
    for p in (2, 3, 5, 7, 11):
        walked, _ = cocycle_reference.cocycle_system(g, _ip(g, p))
        assert _constraints(g, p, relators).dim == walked.dim
        assert _constraints(g, p, relators[:1] + relators[2:]).dim == walked.dim - 1, p


@pytest.mark.parametrize("token,p,z1", [("A4", 2, 3), ("S3", 2, 2), ("S3", 3, 2),
                                        ("S3", 5, 2)])
def test_an_edge_back_into_the_schreier_tree_is_a_relator(token, p, z1):
    # each Cayley-graph edge outside the walk's spanning tree constrains
    # the images, and the walk's Z^1 is the presentation's
    g, _ = _presented(token)
    mod = _ip(g, p)
    assert cohomology_of_Ip(parse_group(token), p).dim_Z1 == z1
    walked, _ = cocycle_reference.cocycle_system(g, mod)
    assert len(g.generators) * mod.dim - walked.dim == z1


@pytest.mark.parametrize("p,z1,h1", [(2, 18, 9), (3, 9, 0)])
def test_cocycles_of_a_normal_closure(p, z1, h1):
    # modfp presents only S_n, A_n and C_n; the walk counts the cocycles
    # of any group, here the closure generated by the seeds that grew its chain
    g = derived_subgroup(tower_group(parse_tower("C3;C2;C2")))
    mod = FpModule.natural(g, p)
    walked, order = cocycle_reference.cocycle_system(g, mod)
    dim_z1 = len(g.generators) * mod.dim - walked.dim
    dim_b1 = mod.dim - fixed_points(mod)
    assert (order, mod.dim, dim_z1, dim_b1, dim_z1 - dim_b1) == (128, 12, z1, 9, h1)


def test_cocycle_budget(monkeypatch):
    # cohomology_of_Ip refuses on the entries counted for A7, before
    # anything is built, and admits A7 at a budget of that count
    need = cocycle_entries(parse_group("A7"))
    monkeypatch.setattr(modfp, "EQUATION_BUDGET", need - 1)
    with monkeypatch.context() as built:
        for name in ("presentation", "_relator_equations", "endomorphism_dim"):
            built.setattr(modfp, name, _refuse)
        with pytest.raises(BudgetExceeded) as exc:
            cohomology_of_Ip(parse_group("A7"), 2)
    assert str(exc.value) == (f"cocycle equations may write {need} entries, "
                              f"over the budget of {need - 1} entries")
    monkeypatch.setattr(modfp, "EQUATION_BUDGET", need)
    assert cohomology_of_Ip(parse_group("A7"), 2).group_order == 2520


# the largest degree of each kind that EQUATION_BUDGET admits; `cohom` on
# each takes about 10 s for S and A, and CI runs them
EDGES = {"S": 299, "A": 299, "C": 378}


def test_the_equation_budget_admits_each_kinds_edge_and_refuses_the_next_degree():
    # the count grows with n, so the edge + 1 and every larger degree are
    # refused (test_cohomology_of_Ip_refuses_its_budgets_before_building)
    for kind, n in EDGES.items():
        assert (cocycle_entries(GroupSpec(kind, n)) <= modfp.EQUATION_BUDGET
                < cocycle_entries(GroupSpec(kind, n + 1))), kind
        counts = [cocycle_entries(GroupSpec(kind, m)) for m in range(n - 40, n + 2)]
        assert counts == sorted(set(counts)), kind


@pytest.mark.parametrize("token,p", [(t, p) for t in ("S32", "S33", "A32", "A33", "C39")
                                     for p in (2, 2 ** 31 - 1)])
def test_the_entry_count_bounds_what_cohom_writes(monkeypatch, token, p):
    # a wrapper counts what cohomology_of_Ip writes: in the relator
    # evaluation, one permutation product a letter and the positions its
    # equation rows hold, at most 2k a letter; in End, the terms of every
    # product it takes.  Their sum stays within the count made before
    spec = parse_group(token)
    k = spec.n - 1
    written = dict.fromkeys(("products", "letters", "positions", "end"), 0)
    evaluate, end = modfp._relator_equations, modfp.endomorphism_dim
    mul, equations, times = Permutation.__mul__, modfp._equations, modfp._times

    def composed(self, other):
        written["products"] += 1
        return mul(self, other)

    def held(rows, q):
        written["positions"] += sum(map(len, rows))
        return equations(rows, q)

    def product(v, terms, q):
        out = times(v, terms, q)
        written["end"] += len(out)
        return out

    def evaluated(letters, relators, q):
        written["letters"] += sum(map(len, relators))
        with monkeypatch.context() as inside:
            inside.setattr(Permutation, "__mul__", composed)
            inside.setattr(modfp, "_equations", held)
            return evaluate(letters, relators, q)

    def spun(m):
        with monkeypatch.context() as inside:
            inside.setattr(modfp, "_times", product)
            return end(m)

    monkeypatch.setattr(modfp, "_relator_equations", evaluated)
    monkeypatch.setattr(modfp, "endomorphism_dim", spun)
    cohomology_of_Ip(spec, p)
    assert written["products"] == written["letters"] > 0
    assert 0 < written["positions"] <= 2 * k * written["letters"]
    assert 0 < written["end"]
    assert 2 * k * written["letters"] + written["end"] <= cocycle_entries(spec)


class _Checked(Exception):
    pass


def _checked_needs(monkeypatch, token):
    """The entries cohomology_of_Ip checks for `token` at p = 2, and the
    relators it then evaluates."""
    needs, evaluated = [], []

    def counted(spec):
        needs.append(cocycle_entries(spec))
        return needs[-1]

    def stop(letters, relators, p):
        evaluated.append(relators)
        raise _Checked

    monkeypatch.setattr(modfp, "cocycle_entries", counted)
    monkeypatch.setattr(modfp, "_relator_equations", stop)
    with pytest.raises(_Checked):
        cohomology_of_Ip(parse_group(token), 2)
    return needs, evaluated[0]


@pytest.mark.parametrize("n", [2, 3, 7, 20, 38])
def test_the_degree_bound_is_exact_for_cyclic_groups(monkeypatch, n):
    # cohomology_of_Ip checks the count of the degree before it builds
    # anything; C_n's presentation is one relator on one letter
    needs, relators = _checked_needs(monkeypatch, f"C{n}")
    assert needs == [cocycle_entries(GroupSpec("C", n))] and relators == [[0] * n]


@pytest.mark.parametrize("token", [f"{kind}{n}" for kind in "AS" for n in (4, 5, 6, 7, 20, 21)]
                         + ["S3"])
def test_the_budget_is_checked_once_on_the_presentations_own_size(monkeypatch, token):
    # the count is of the kind and degree alone, and bounds the
    # presentation's own size: 2k entries for each letter of its words
    needs, relators = _checked_needs(monkeypatch, token)
    spec = parse_group(token)
    n = spec.n
    assert needs == [cocycle_entries(spec)]
    assert len(relators) == n // 2 + (3 if token[0] == "S" else 2)
    assert 2 * len(relators) <= n + 6
    assert 2 * (n - 1) * sum(map(len, relators)) <= needs[0] - _end_entries(n)


@pytest.mark.parametrize("token,conjugate", [("A5", False), ("A7", False), ("S4", True),
                                             ("C5", True)])
def test_cocycle_system_is_exact_at_the_largest_prime(token, conjugate):
    # a product of two entries near 2^31 is near 2^62, and sums of k of them
    # overflow int64, where the reference walks on Python ints; conjugated
    # by a dense matrix, every entry of every product is large
    p = 2 ** 31 - 1
    g, words = _presented(token)
    mod = _ip(g, p)
    if conjugate:
        rng = np.random.default_rng(7)
        t = rng.integers(0, p, size=(mod.dim, mod.dim)).tolist()
        assert _inverse_mod(t, p) is not None
        mod = _conjugated(mod, t)
    walked, order = cocycle_reference.cocycle_system(g, mod)
    spans = [_reference_constraints(g, mod, words)]
    if not conjugate:
        spans.append(_constraints(g, p, words))
    for relators in spans:
        assert (dense.rows(relators), relators.pivots) == (dense.rows(walked), walked.pivots)
    assert order == g.order()


@pytest.mark.parametrize("run,handed", [
    # of 589 cocycle and 992 End rows for S32 at p = 2, 558 and 992 for
    # A32, 38 and 38 for C39 at p = 3, and 56 End rows for (8, 3)
    (lambda: cohomology_of_Ip(parse_group("S32"), 2), [124, 31, 120]),
    (lambda: cohomology_of_Ip(parse_group("A32"), 2), [153, 31, 499]),
    (lambda: cohomology_of_Ip(parse_group("C39"), 3), [0, 38, 0]),
    (lambda: check_Ip_structure(8, 3), [32]),
], ids=["S32", "A32", "C39", "module 8 3"])
def test_span_is_handed_only_equations_that_do_not_vanish(monkeypatch, run, handed):
    # cocycle_dims spans the relator equations, the fixed-point rows and
    # End's equations, in that order; check_Ip_structure End's alone
    matrices, span = [], RowSpace.span.__func__

    def recorded(cls, rows, p, width):
        matrices.append((rows, p, width))
        return span(cls, rows, p, width)

    monkeypatch.setattr(RowSpace, "span", classmethod(recorded))
    run()
    assert [len(m) for m, _, _ in matrices] == handed
    # each row, fixed-point rows too, is terms: distinct columns inside the
    # width, values in 1..p-1; an equation also has at least one term
    for i, (rows, p, width) in enumerate(matrices):
        for row in rows:
            assert len({j for j, _ in row}) == len(row)
            assert all(0 <= j < width and 0 < x < p for j, x in row)
            assert row or i % 2


@pytest.mark.parametrize("p,message", [(4, "p must be prime"), (9, "p must be prime"),
                                       (2 ** 31 + 11, "p must be below 2^31")])
def test_a_module_is_refused_a_p_that_is_not_a_prime_below_2_31(p, message):
    # cocycle_dims once met these moduli as numpy's "base is not invertible"
    g, relators = _presented("A5")
    with pytest.raises(BadInput) as exc:
        cocycle_dims(g, relators, p)
    assert str(exc.value) == message
    with pytest.raises(BadInput):
        FpModule(p, 1, [[[(0, 1)]]])


def test_cocycle_requires_matching_generators():
    g, relators = _presented("A5")
    other = FpModule.natural(alt_group(4), 2)
    with pytest.raises(ValueError):
        cocycle_reference.cocycle_dims(g, FpModule(2, 4, other.terms[:1]), relators)


def _refuse(*args):
    raise AssertionError("built for an input that is refused anyway")


def _over_budget(token):
    return (f"cocycle equations may write {cocycle_entries(parse_group(token))} entries, "
            f"over the budget of {modfp.EQUATION_BUDGET} entries")


# each refusal reads only the kind and degree, before a permutation is
# composed; FpModule.natural builds the first action, the letters' rows
@pytest.mark.parametrize("token,skipped,message", [
    ("A300", ("presentation", "FpModule.natural", "_relator_equations",
              "Permutation.__mul__"), _over_budget("A300")),
    # the words of A_n have about n^2 / 2 letters, and a chain of degree
    # 10^7 would take minutes to build
    ("A10000000", ("presentation", "FpModule.natural", "_relator_equations",
                   "Permutation.__mul__"), _over_budget("A10000000")),
    ("C379", ("FpModule.natural", "_relator_equations", "endomorphism_dim",
              "Permutation.__mul__"), _over_budget("C379")),
    ("S300", ("presentation", "FpModule.natural", "_relator_equations",
              "Permutation.__mul__"), _over_budget("S300")),
])
def test_cohomology_of_Ip_refuses_its_budgets_before_building(
        monkeypatch, token, skipped, message):
    for name in skipped:
        owner, _, attr = name.rpartition(".")
        monkeypatch.setattr(getattr(modfp, owner) if owner else modfp, attr, _refuse)
    with pytest.raises(BudgetExceeded) as exc:
        cohomology_of_Ip(parse_group(token), 2)
    assert str(exc.value) == message


@pytest.mark.parametrize("p,message", BAD_PRIMES)
def test_cohomology_of_Ip_refuses_a_p_that_is_not_a_prime_below_2_31(monkeypatch, p, message):
    monkeypatch.setattr(modfp, "presentation", _refuse)
    with pytest.raises(ValueError) as exc:
        cohomology_of_Ip(parse_group("A5"), p)
    assert str(exc.value) == message


# --- the s and h parameters --------------------------------------------------

def test_s_and_h_params():
    assert h_param(4, 3) == 3
    assert h_param(1, 3) == 2
    assert h_param(0, 3) == 1
    with pytest.raises(ValueError):
        h_param(3, 0)


def test_h_stays_below_rank_bound_for_small_h1():
    # with r = 3 and H^1 contributing at most 1, h never exceeds max(2, d_3)
    for dp in range(21):
        for h1 in (0, 1):
            h = h_param(dp + h1, 3)
            assert h <= max(2, dp)
