"""CLI surface: JSON documents, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tree_blocks import EXAMPLE_PLANTED_IDS, planted_example_non_members
from wreathgen import cli, modfp, permcore
from wreathgen.formula import FormulaResult
from wreathgen.permcore import BadInput, ConsistencyError
from wreathgen.wreath import parse_tower, tower_group


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def process(*argv, timeout=30, python_flags=()) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, for inputs whose failure mode is a
    hang: a run past the timeout fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *python_flags, "-m", "wreathgen.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


def run_process(*argv, timeout=30, python_flags=()):
    proc = process(*argv, timeout=timeout, python_flags=python_flags)
    return proc.returncode, json.loads(proc.stdout)


def test_formula_document(capsys):
    code, doc = run(capsys, "formula", "--tower", "A5;C3;C2;C2")
    assert code == 0
    assert doc["d"] == 2
    assert doc["case"] == "An"
    assert doc["order"] == "512988145055170560"
    assert doc["leaf_count"] == 60
    assert doc["abelianization"] == {"2": 2, "3": 1}
    assert doc["counting"]["d"] == 2
    assert doc["counting"]["c"] == {"2": 2, "3": 1}


def test_formula_single_level_has_no_counting(capsys):
    code, doc = run(capsys, "formula", "--tower", "C5")
    assert code == 0
    assert doc["d"] == 1 and doc["case"] == "SingleLevel"
    assert doc["counting"] is None


def test_formula_cyclic_top_has_no_counting(capsys):
    code, doc = run(capsys, "formula", "--tower", "C3;C2;C2")
    assert code == 0
    assert doc["d"] == 3 and doc["case"] == "Cyclic"
    assert doc["counting"] is None


def test_formula_output_is_deterministic(capsys):
    a = run(capsys, "formula", "--tower", "S4;C6;A4")
    b = run(capsys, "formula", "--tower", "S4;C6;A4")
    assert a == b


def test_formula_rejects_bad_tower(capsys):
    code, doc = run(capsys, "formula", "--tower", "A5;;C2")
    assert code == 2 and "error" in doc
    code, doc = run(capsys, "formula", "--tower", "C1")
    assert code == 2 and "error" in doc


def test_verify_agreement(capsys):
    code, doc = run(capsys, "verify", "--tower", "S3;C2")
    assert code == 0
    assert doc["agree"] is True
    assert doc["oracle"]["status"] == "exact"
    assert doc["oracle"]["lower"] == doc["d"] == 2


def test_verify_huge_tower_skips_oracle(capsys):
    tower = ";".join(["C2"] * 13)  # 8192 leaves
    code, doc = run(capsys, "verify", "--tower", tower)
    assert code == 0
    assert doc["oracle"] is None and doc["agree"] is None
    assert "exceed" in doc["warning"]
    assert doc["d"] == 13


_C2_14 = ";".join(["C2"] * 14)  # order 2^16383, 4,932 decimal digits


@pytest.mark.parametrize("argv", [
    ["formula", "--tower", "S3;S1000"], ["formula", "--tower", _C2_14],
    ["verify", "--tower", "S3;S1000"], ["verify", "--tower", _C2_14],
    ["example", "--n", "2001"],
])
def test_an_order_past_the_int_to_string_limit_is_null_with_a_warning(
        capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle run on a tower past the order limit")

    monkeypatch.setattr(cli, "min_generators", refuse)  # S3;S1000 has 3,000 leaves
    code, doc = run(capsys, *argv)
    assert code == 0
    assert doc["order"] is None
    assert f"over {sys.get_int_max_str_digits()} decimal digits" in doc["warning"]
    if argv[0] == "verify":
        assert doc["oracle"] is None and doc["agree"] is None
        assert doc["warning"].endswith("; formula only") and doc["d"] >= 2
    if argv[0] == "formula":
        assert doc["counting"] is None or doc["counting"]["d"] == doc["d"]


needs_int_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-string limit")
_ZEROS_3000 = "1" + "0" * 3000


@needs_int_limit
@pytest.mark.parametrize("tower,leaves", [
    ("S1000000", 1000000),  # 5.5 million digits, once built as 1000000!
    ("C1000000000;C2", 2000000000),  # a 125 MB power of 2, once built
    (f"C{_ZEROS_3000};C{_ZEROS_3000}", None),  # 10^3000 copies of C_10^3000
])
def test_an_order_far_past_the_limit_is_null_without_being_built(tower, leaves):
    code, doc = run_process("formula", "--tower", tower, timeout=10)
    assert code == 0 and doc["order"] is None and doc["leaf_count"] == leaves
    omitted = "order" if leaves else "leaf count and order"
    assert doc["warning"].startswith(
        f"{omitted} omitted: over {sys.get_int_max_str_digits()} decimal digits")


@needs_int_limit
@pytest.mark.parametrize("tower,order,leaves", [
    # |C637 wr C10| = 637 * 10^637 has 640 digits, 638 * 10^638 has 641
    ("C637;C10", str(637 * 10 ** 637), 6370),
    ("C638;C10", None, 6380),
    ("C700;C10", None, 7000),
    # leaf counts of 640 and 641 digits, each with an order past the limit
    (f"C1{'0' * 320};C1{'0' * 319}", None, 10 ** 639),
    (f"C1{'0' * 320};C1{'0' * 320}", None, None),
])
def test_fields_on_either_side_of_the_limit(tower, order, leaves):
    code, doc = run_process("formula", "--tower", tower, timeout=10,
                            python_flags=("-X", "int_max_str_digits=640"))
    assert code == 0
    assert (doc["order"], doc["leaf_count"]) == (order, leaves)
    assert ("warning" in doc) == (order is None)


@pytest.mark.parametrize("tower,exit_code,text", [
    # 2^61 - 1 is prime: trial division stops at 2^16, Miller-Rabin certifies it
    ("A5;C2305843009213693951", 0, None),
    # 65537 * 65539: composite, and both factors lie past trial division
    ("A5;C4295229443", 3, "factoring budget"),
    # 2^89 - 1: prime, but past the range where the strong test is exact
    ("C2;C618970019642690137449562111", 3, "factoring budget"),
    pytest.param(f"C1{'0' * 4400}", 2, "C<4401 digits>", marks=needs_int_limit),
])
def test_a_large_level_degree_is_settled_or_refused_promptly(tower, exit_code, text):
    code, doc = run_process("formula", "--tower", tower, timeout=10)
    assert code == exit_code
    if exit_code:
        assert text in doc["error"]
    else:
        assert doc["abelianization"] == {"2305843009213693951": 1} and doc["d"] == 2


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "d_tower", lambda t: FormulaResult(5, "An", {}))
    code, doc = run(capsys, "verify", "--tower", "S3;C2")
    assert code == 4
    assert doc["agree"] is False


# each refusal the CLI can reach: its argv, the function that owns the rule
# and raises it, and the message
REFUSALS = [
    (["module", "--n", "5", "--p", "4"], "_require_prime", "p must be prime"),
    (["cohom", "--group", "A5", "--p", "4"], "_require_prime", "p must be prime"),
    (["module", "--n", "5", "--p", "2147483659"], "_require_prime", "p must be below 2^31"),
    (["cohom", "--group", "A7", "--p", "2147483659"], "_require_prime", "p must be below 2^31"),
    (["module", "--n", "3", "--p", "3"], "check_Ip_structure", "n must be at least 4"),
    (["example", "--n", "6"], "example_tower", "the example pair needs odd n >= 5"),
    (["cohom", "--group", "B5", "--p", "2"], "parse_group",
     "bad group token 'B5'; expected A<n>, S<n> or C<n>"),
    (["formula", "--tower", "C5;A2"], "__post_init__",
     "A2 is trivial; levels must be nontrivial groups"),
    (["verify", "--tower", "S3;C2", "--attempts", "-1"], "_cmd_verify",
     "attempts must be nonnegative"),
    (["module", "--n", "5", "--p", "6"], "_require_prime", "p must be prime"),
    (["cohom", "--group", "C1", "--p", "2"], "__post_init__",
     "C1 is trivial; levels must be nontrivial groups"),
]


@pytest.mark.parametrize("argv,owner,message", REFUSALS, ids=[" ".join(r[0]) for r in REFUSALS])
def test_each_refusal_is_raised_by_its_owner_and_exits_2(capsys, argv, owner, message):
    # the command itself, without main's handler: the refusal must come
    # from the owner, not from a second copy of the rule on the way there
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(BadInput) as exc:
        args.func(args)
    assert exc.traceback[-1].name == owner
    assert str(exc.value) == message
    assert run(capsys, *argv) == (2, {"error": message})


def test_verify_seed_passthrough(capsys):
    code, doc = run(capsys, "verify", "--tower", "C2;S3", "--seed", "9")
    assert code == 0 and doc["oracle"]["seed"] == 9


def test_module_verified(capsys):
    code, doc = run(capsys, "module", "--n", "5", "--p", "5")
    assert code == 0
    assert doc["status"] == "verified"
    assert doc["checked_vectors"] == 2500
    assert doc["unique_maximal"] is True


def test_module_over_budget_exits_3(capsys):
    code, doc = run(capsys, "module", "--n", "25", "--p", "2")
    assert code == 3
    assert doc["status"] == "unverified"


def test_module_over_budget_at_a_huge_n_returns_at_once():
    # 3 ** n for this n would take hours; the budget is decided without it
    code, doc = run_process("module", "--n", "1000000000", "--p", "3")
    assert code == 3
    assert doc["status"] == "unverified" and doc["dim_Ip"] == 999999999


def test_module_over_budget_builds_nothing(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("Alt(n) built for an over-budget check")

    monkeypatch.setattr(modfp, "alt_group", refuse)
    code, doc = run(capsys, "module", "--n", "400", "--p", "2")
    assert code == 3
    assert doc["status"] == "unverified" and doc["dim_Ip"] == 399


def test_cohom_a5(capsys):
    code, doc = run(capsys, "cohom", "--group", "A5", "--p", "3")
    assert code == 0
    assert doc["dim_H1"] == 1
    assert doc["s"] == 1 and doc["h"] == 2 and doc["r"] == 4


def test_cohom_nonscalar_end_has_no_h(capsys):
    code, doc = run(capsys, "cohom", "--group", "C4", "--p", "2")
    assert code == 0
    assert doc["h"] is None
    assert "endomorphism" in doc["warning"]


def over_budget(need):
    return {"error": f"cocycle equations may need {need} bytes, over the budget "
                     f"of {modfp.EQUATION_BUDGET}"}


def test_cohom_over_budget_exits_3(capsys, monkeypatch):
    # A79, S79 and C79 are refused on their degree before anything is built
    def refuse(*args):
        raise AssertionError("built something for a group over the budget")

    for name in ("presentation", "_relator_equations", "endomorphism_dim"):
        monkeypatch.setattr(modfp, name, refuse)
    for group in ("A79", "S79", "C79"):
        code, doc = run(capsys, "cohom", "--group", group, "--p", "2")
        assert code == 3
        assert doc == over_budget(17175232)
    assert modfp.cocycle_bytes(78) == 17175232


@pytest.mark.parametrize("group,order", [("A9", 181440), ("S9", 362880)])
def test_cohom_a9_and_s9(capsys, group, order):
    # 11 does not divide 9!, so H^1 vanishes and Z^1 = B^1 = I_p
    code, doc = run(capsys, "cohom", "--group", group, "--p", "11")
    assert code == 0
    assert doc["group_order"] == order and doc["dim_H1"] == 0
    assert doc["dim_Z1"] == doc["dim_B1"] == 8


def test_cohom_s8(capsys):
    # 11 does not divide 8!, so H^1 vanishes and Z^1 = B^1 = I_p
    code, doc = run(capsys, "cohom", "--group", "S8", "--p", "11")
    assert code == 0
    assert doc["group_order"] == 40320 and doc["dim_H1"] == 0
    assert doc["dim_Z1"] == doc["dim_B1"] == 7


def test_cohom_over_budget_at_a_huge_degree_returns_at_once():
    # a chain of degree 10^7 would take minutes to build
    code, doc = run_process("cohom", "--group", "A10000000", "--p", "2", timeout=10)
    assert code == 3
    assert doc == over_budget(modfp.cocycle_bytes(10 ** 7 - 1))


def test_equation_budget_admits_degree_78_and_refuses_79():
    # the count reads the degree alone, so A78, S78 and C78 are admitted
    # and the next degree of each is refused (test_cohom_over_budget_exits_3)
    assert modfp.cocycle_bytes(77) == 16548480 <= modfp.EQUATION_BUDGET
    assert modfp.cocycle_bytes(78) == 17175232 > modfp.EQUATION_BUDGET


def test_a_single_level_over_the_chain_byte_budget_exits_3_within_a_second(capsys, monkeypatch):
    # `verify --tower S800` passes the budget itself (CI runs it); below
    # the 1.5 MB that S100's chain is counted at, S100 does so at once
    monkeypatch.setattr(permcore, "CHAIN_BYTE_BUDGET", 10 ** 6)
    start = time.perf_counter()
    code, doc = run(capsys, "verify", "--tower", "S100", "--seed", "1")
    assert time.perf_counter() - start < 1
    assert code == 3 and set(doc) == {"error"}
    assert doc["error"].startswith("a stabilizer chain of degree 100 may need ")
    assert doc["error"].endswith(" bytes, over the budget of 1000000")


def test_verify_is_exact_at_a_chain_budget_of_the_towers_own_count(capsys, monkeypatch):
    # C2;C16 needs no witness search, so the tower's chain, built to its
    # known order, is the one chain `verify` builds; one byte less exits 3
    chain = tower_group(parse_tower("C2;C16")).bsgs()
    need = chain._tables * chain._table_bytes
    monkeypatch.setattr(permcore, "CHAIN_BYTE_BUDGET", need)
    code, doc = run(capsys, "verify", "--tower", "C2;C16", "--seed", "1")
    assert code == 0 and doc["oracle"]["status"] == "exact"
    monkeypatch.setattr(permcore, "CHAIN_BYTE_BUDGET", need - 1)
    code, doc = run(capsys, "verify", "--tower", "C2;C16", "--seed", "1")
    assert code == 3 and doc == {"error": (
        f"a stabilizer chain of degree 32 may need {need} bytes, over the budget of {need - 1}")}


@pytest.mark.parametrize("group,p", [("A5", "3"), ("S4", "2"), ("C20", "3"), ("C21", "5")])
def test_cocycle_bytes_bounds_every_equation_stack(capsys, monkeypatch, group, p):
    spans, needs = [], []
    span = modfp.RowSpace.span.__func__
    count = modfp.cocycle_bytes

    def recorded(cls, matrix, q):
        spans.append(np.asarray(matrix).nbytes)
        return span(cls, matrix, q)

    def counted(k):
        needs.append(count(k))
        return needs[-1]

    monkeypatch.setattr(modfp.RowSpace, "span", classmethod(recorded))
    monkeypatch.setattr(modfp, "cocycle_bytes", counted)
    code, doc = run(capsys, "cohom", "--group", group, "--p", p)
    assert code == 0
    # one count, of the degree, before anything is built
    assert len(needs) == 1
    assert max(spans) <= needs[0]


@pytest.mark.parametrize("group,p", [
    ("A5", "2147483659"),  # a prime above 2^31, refused with every module over it
])
def test_cohom_rejects_a_p_too_large_for_its_arithmetic(capsys, group, p):
    code, doc = run(capsys, "cohom", "--group", group, "--p", p)
    assert code == 2 and set(doc) == {"error"}


@pytest.mark.parametrize("group,p", [("A5", "1518500213"), ("A5", "1518500279"),
                                     ("A5", "2147483647"), ("A7", "2147483647")])
def test_cohom_takes_every_prime_below_2_31(capsys, group, p):
    # past 1518500213 for A5, and at 2^31 - 1 for A7, k (p - 1)^2 + p - 1
    # passes 2^63, so int64 sums of the k-dimensional system would overflow;
    # p does not divide |G|, so H^1 vanishes and Z^1 = B^1 = I_p
    code, doc = run(capsys, "cohom", "--group", group, "--p", p)
    k = int(group[1:]) - 1
    assert code == 0
    assert (doc["dim_Z1"], doc["dim_B1"], doc["dim_H1"], doc["end_dim"]) == (k, k, 0, 1)


def test_module_rejects_a_p_too_large_before_factoring_it(capsys, monkeypatch):
    def refuse(p):
        raise AssertionError("trial division of a p that is refused anyway")

    monkeypatch.setattr(modfp, "prime_factorization", refuse)
    for p in ("2147483659", "9223372036854775783"):
        code, doc = run(capsys, "module", "--n", "4", "--p", p)
        assert code == 2 and doc == {"error": "p must be below 2^31"}


def test_example_document(capsys):
    code, doc = run(capsys, "example", "--n", "5")
    assert code == 0
    assert doc["tower"] == "A5;C3;C2;C2"
    assert (doc["order_x"], doc["order_y"]) == (12, 6)
    assert doc["generates"] is None


def test_example_verify_certifies_generation(capsys):
    code, doc = run(capsys, "example", "--n", "5", "--verify")
    assert code == 0
    assert doc["generates"] is True
    assert doc["order"] == "512988145055170560"


def test_example_verify_reports_a_pair_that_does_not_generate(capsys, monkeypatch):
    # <x> is cyclic of order 12; its chain, built to |W|, falls short and
    # forms no Schreier generator on the way
    def no_schreier(*args):
        raise AssertionError("a Schreier generator was formed")

    x, _ = cli.example_generators(5)
    monkeypatch.setattr(cli, "example_generators", lambda n: (x, x))
    monkeypatch.setattr(permcore.Bsgs, "_process", no_schreier)
    code, doc = run(capsys, "example", "--n", "5", "--verify")
    assert code == cli.EXIT_MISMATCH == 4 and doc["generates"] is False


@pytest.mark.parametrize("bad,names", planted_example_non_members(), ids=EXAMPLE_PLANTED_IDS)
def test_example_verify_refuses_a_pair_outside_w_before_any_chain(monkeypatch, bad, names):
    # a chain built to |W| shows only |<x, y>| >= |W|, so a pair outside W
    # must be refused before it
    def no_chain(*args):
        raise AssertionError("a chain was built")

    x, _ = cli.example_generators(5)
    monkeypatch.setattr(cli, "example_generators", lambda n: (x, bad))
    monkeypatch.setattr(cli, "bsgs_build", no_chain)
    with pytest.raises(ConsistencyError, match=names):
        cli.main(["example", "--n", "5", "--verify"])


def _need(capsys, monkeypatch, *argv) -> int:
    """The bytes `example` asks of its budget for argv, read off the
    refusal a budget of 0 gives."""
    with monkeypatch.context() as m:
        m.setattr(cli, "EXAMPLE_BYTE_BUDGET", 0)
        m.setattr(cli, "example_generators", _refuse_to_build)
        code, doc = run(capsys, "example", *argv)
    assert code == 3
    return int(doc["error"].split(" needs about ")[1].split()[0])


def _refuse_to_build(n):
    raise AssertionError("example pair built past its byte budget")


@pytest.mark.parametrize("n", [2001])
def test_example_verify_past_its_budget_returns_at_once(n):
    # the chain of n = 2001 (24,012 leaves) would need terabytes; it is
    # refused at the first table past the chain byte budget, one table of
    # 24,012 points at most after the count reaches it
    code, doc = run_process("example", "--n", str(n), "--verify", timeout=10)
    leaves = 12 * n
    need = re.fullmatch(rf"a stabilizer chain of degree {leaves} may need (\d+) bytes, "
                        rf"over the budget of {permcore.CHAIN_BYTE_BUDGET}", doc.get("error", ""))
    assert code == 3 and set(doc) == {"error"} and need
    table = sys.getsizeof(tuple(range(leaves)))  # a permutation of the leaves, as a tuple
    assert permcore.CHAIN_BYTE_BUDGET < int(need[1]) <= permcore.CHAIN_BYTE_BUDGET + 2 * table


def test_example_verify_budget_admits_its_own_leaf_count(capsys, monkeypatch):
    # --verify asks the pair's own need, 200 bytes for each of --n 5's 60
    # leaves, of this budget (its chain is counted by the chain byte
    # budget); that budget admits --n 5 --verify and refuses --n 7, with
    # --verify or without, before the pair is built
    need = _need(capsys, monkeypatch, "--n", "5", "--verify")
    assert need == _need(capsys, monkeypatch, "--n", "5") == 200 * 60
    monkeypatch.setattr(cli, "EXAMPLE_BYTE_BUDGET", need)
    code, doc = run(capsys, "example", "--n", "5", "--verify")
    assert code == 0 and doc["generates"] is True and "warning" not in doc
    monkeypatch.setattr(cli, "example_generators", _refuse_to_build)
    for argv in (["--n", "7", "--verify"], ["--n", "7"]):
        code, doc = run(capsys, "example", *argv)
        assert code == 3 and doc["error"].endswith(f"over the budget of {cli.EXAMPLE_BYTE_BUDGET}")


def test_the_pairs_chain_peaks_within_a_tenth_of_its_counted_bytes():
    # the chain byte budget counts only the tables a chain stores; for the
    # pair of n = 23 (276 leaves, permutations as tuples) the peak was 1.036
    # times the count, 1.026 at n = 31 and 1.022 for S300
    t = cli.example_tower(23)
    x, y = cli.example_generators(23)
    tracemalloc.start()
    try:
        chain = cli.bsgs_build(cli.PermGroup(t.leaf_count(), (x, y)), t.order())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counted = chain._tables * chain._table_bytes
    assert chain.order() == t.order() and counted <= peak <= 1.1 * counted


def test_example_past_its_byte_budget_is_refused_before_it_is_built(capsys, monkeypatch):
    # unbudgeted, n = 200,001 (2.4 million leaves) would peak near 450 MB
    monkeypatch.setattr(cli, "example_generators", _refuse_to_build)
    for argv in (["--n", "200001"], ["--n", "1000001", "--verify"]):
        code, doc = run(capsys, "example", *argv)
        leaves = 12 * int(argv[1])
        assert code == 3 and doc == {"error": (
            f"the pair of {leaves} leaves needs about {200 * leaves} bytes, "
            f"over the budget of {cli.EXAMPLE_BYTE_BUDGET}")}


def test_example_byte_budget_admits_its_own_need(capsys, monkeypatch):
    monkeypatch.setattr(cli, "EXAMPLE_BYTE_BUDGET", 200 * 84)
    code, doc = run(capsys, "example", "--n", "7")
    assert code == 0 and doc["order_y"] == 10
    monkeypatch.setattr(cli, "example_generators", _refuse_to_build)
    code, doc = run(capsys, "example", "--n", "9")
    assert code == 3 and doc["error"].endswith("over the budget of 16800")


def test_out_flag_writes_identical_json(capsys, tmp_path):
    path = tmp_path / "doc.json"
    code = cli.main(["formula", "--tower", "S4;C2", "--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out


def test_an_out_path_that_cannot_be_written_is_bad_input(tmp_path):
    # a missing directory and a directory: exit 2 with the reason, before
    # any document or traceback
    for argv in (["example", "--n", "5", "--out", str(tmp_path / "missing" / "x.json")],
                 ["formula", "--tower", "C2", "--out", str(tmp_path)]):
        proc = process(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "argument --out: can't open" in proc.stderr and "Traceback" not in proc.stderr


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
