"""The benchmark workloads: seeded inputs, one timed pass, output checks.

A workload holds a fixed list of items built from the workload seed.  A
pass runs every item once, in that order, through the same public entry
point a user would call (`cli.main` for the verify and module workloads,
the library functions for the formula sweep).  Each result is checked as
soon as its item returns, outside the timed region, against the values
frozen in reference.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from wreathgen import cli, formula, wreath  # noqa: E402

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# acceptance test 04: small towers the oracle settles exactly
DESK_TOWERS = ["C3;A4", "A4;C3", "C2;S3", "S3;C2", "S3;C2;C2", "C2;C2", "C2;C2;C2"]

# past the order limit with a cyclic top: each ends bounds_only after 200
# witness chains.  Then C17;C3;C5 (255 leaves) and C16;C16 (256 leaves),
# on either side of permcore's switch from the bytes kernel to the tuple
# kernel.
SCAN_TOWERS = (["C5;C2;C2", "C7;C2;C2", "C3;C2;C2;C2", "C3;C3;C2;C2"] + DESK_TOWERS
               + ["C17;C3;C5", "C16;C16"])
# run with --attempts 0, so the pair scan over the Cayley table, not the
# witness search, finds the generating pair
PAIR_SCAN_TOWERS = ["C2;S4", "C2;C3;C2", "A4;C3", "C3;S3", "C2;C2;C3"]

# acceptance test 07 plus (6,3) and (8,3); cohom on A5..A7.  A pass takes
# about 3 s; the multi-second items are listed in NOTES.md under "Left out"
MODULE_PAIRS = [(4, 2), (4, 3), (4, 5), (5, 2), (5, 3), (5, 5), (6, 2), (6, 5), (7, 2),
                (7, 3), (6, 3), (8, 3)]
COHOM_CASES = [(n, p) for n in (5, 6, 7) for p in (2, 3, 5, 7)]

# the level pool of acceptance tests 05 and 06
FORMULA_POOL = ["A4", "A5", "S3", "S4", "S5", "C2", "C3", "C4", "C5", "C6"]


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """One in-process CLI call; returns the exit code and the parsed document."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def formula_item(text: str) -> tuple:
    """(tower, d, case, counting d) through the library, as `formula` does it."""
    t = wreath.parse_tower(text)
    res = formula.d_tower(t)
    try:
        counting = formula.d_corollary(t)
    except formula.CyclicTopError:
        counting = None
    return (text, res.d, res.case, counting)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the item is right


def check_verify(argv: list[str], code: int, doc: dict) -> list[str]:
    """The bracket holds the closed form's d, exact means lower == d, and
    no bracket is wider than the one recorded at seed state."""
    tower = argv[argv.index("--tower") + 1]
    ref = REFERENCE["verify"][tower]
    lo_ref, hi_ref = ref["bracket"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if doc.get("d") != ref["d"]:
        problems.append(f"d = {doc.get('d')}, closed form {ref['d']}")
    o = doc.get("oracle")
    if not isinstance(o, dict):
        return problems + ["no oracle result"]
    lo, hi, status = o.get("lower"), o.get("upper"), o.get("status")
    if not (isinstance(lo, int) and isinstance(hi, int) and lo <= ref["d"] <= hi):
        problems.append(f"bracket [{lo}, {hi}] misses d = {ref['d']}")
    elif lo < lo_ref or hi > hi_ref:
        problems.append(f"bracket [{lo}, {hi}] wider than recorded [{lo_ref}, {hi_ref}]")
    if status not in ("exact", "bounds_only") or (status == "exact") != (lo == hi):
        problems.append(f"status {status!r} with bracket [{lo}, {hi}]")
    if status == "exact" and lo != ref["d"]:
        problems.append(f"exact at {lo}, closed form {ref['d']}")
    return problems


def check_module(argv: list[str], code: int, doc: dict) -> list[str]:
    """Verified, every vector checked, and the acceptance-07 structure."""
    n, p = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--p") + 1])
    problems = [] if code == 0 else [f"exit code {code}"]
    if doc.get("status") != "verified":
        return problems + [f"status {doc.get('status')!r}"]
    divides = n % p == 0
    want = p ** n - p ** (n - 1) if divides else p ** (n - 1) - 1
    if doc.get("checked_vectors") != want:
        problems.append(f"checked {doc.get('checked_vectors')} vectors, want {want}")
    if divides:
        if doc.get("unique_maximal") is not True:
            problems.append("I_p not the unique maximal submodule")
    elif not (doc.get("direct_sum") is True and doc.get("irreducible") is True
              and doc.get("end_dim") == 1 and doc.get("r") == n - 1):
        problems.append("I_p not an irreducible direct summand with scalar End")
    return problems


def check_cohom(argv: list[str], code: int, doc: dict) -> list[str]:
    """Cocycle dimensions equal the frozen ones (acceptance 08 where it has them)."""
    group, p = argv[argv.index("--group") + 1], argv[argv.index("--p") + 1]
    ref = REFERENCE["cohom"][f"{group}/{p}"]
    problems = [] if code == 0 else [f"exit code {code}"]
    got = {k: doc.get(k) for k in ref}
    if got != ref:
        problems.append(f"dimensions {got} != frozen {ref}")
    return problems


def result_hash(result) -> int:
    """128-bit hash of one item's result; a pass digest is their sum mod
    2**128, which does not depend on the order the items ran in."""
    return int.from_bytes(hashlib.blake2b(repr(result).encode(), digest_size=16).digest(),
                          "big")


def pass_digest(results) -> str:
    return f"{sum(map(result_hash, results)) % 2 ** 128:032x}"


def check_formula_pass(count: int, digest: str) -> list[str]:
    """All towers ran, and the digest of their (tower, d, case, counting d)
    tuples equals the frozen one."""
    ref = REFERENCE["formula_sweep"]
    if count != ref["towers"]:
        return [f"{count} towers, want {ref['towers']}"]
    return [] if digest == ref["digest"] else [f"digest {digest[:12]} != {ref['digest'][:12]}"]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Items built from the seed; run_item executes one, check judges one."""

    name = ""
    unit = 1  # consecutive items timed together; see run.Run
    pass_s = 1.0  # seconds a pass took at the first version; sets the pass count
    result_hash = staticmethod(result_hash)

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items = self.make_items()

    def make_items(self) -> list:
        raise NotImplementedError

    def run_item(self, item):
        """Execute one item; the result is what check() and is_exact() read."""
        return run_cli(item)

    def check(self, item, result) -> list[str]:
        raise NotImplementedError

    def is_exact(self, result) -> bool:
        return True

    def check_pass(self, count: int, digest: str) -> list[str]:
        """Checks of a whole pass, given its item count and pass_digest;
        a problem here fails every item of the pass."""
        return []

    def warm_up(self) -> None:
        raise NotImplementedError


class VerifyWorkload(Workload):
    def check(self, item, result):
        return check_verify(item, *result)

    def is_exact(self, result):
        return (result[1].get("oracle") or {}).get("status") == "exact"

    def warm_up(self):
        run_cli(["verify", "--tower", "C2;S3", "--seed", "1"])


class VerifyScan(VerifyWorkload):
    name = "verify-scan"
    pass_s = 2.2

    def make_items(self):
        items = [["verify", "--tower", t] for t in SCAN_TOWERS]
        items += [["verify", "--tower", t, "--attempts", "0"] for t in PAIR_SCAN_TOWERS]
        self.rng.shuffle(items)
        return [item + ["--seed", str(self.rng.randrange(1, 2 ** 31))] for item in items]


class Modules(Workload):
    name = "modules"
    pass_s = 2.9

    def make_items(self):
        items = [["module", "--n", str(n), "--p", str(p)] for n, p in MODULE_PAIRS]
        items += [["cohom", "--group", f"A{n}", "--p", str(p)] for n, p in COHOM_CASES]
        self.rng.shuffle(items)
        return items

    def check(self, item, result):
        return (check_module if item[0] == "module" else check_cohom)(item, *result)

    def is_exact(self, result):
        code, doc = result
        return code == 0 and doc.get("status", "verified") == "verified"

    def warm_up(self):
        run_cli(["module", "--n", "4", "--p", "2"])
        run_cli(["cohom", "--group", "A5", "--p", "2"])


class FormulaSweep(Workload):
    name = "formula-sweep"
    unit = 100  # a tower alone takes about 20 microseconds
    pass_s = 2.3

    def make_items(self):
        towers = [";".join(c) for k in range(2, 6)
                  for c in itertools.product(FORMULA_POOL, repeat=k)]
        self.rng.shuffle(towers)
        return towers

    def run_item(self, item):
        return formula_item(item)

    def check(self, item, result):
        return []

    def check_pass(self, count, digest):
        return check_formula_pass(count, digest)

    def warm_up(self):
        for text in self.items[:1000]:
            formula_item(text)


WORKLOADS = {w.name: w for w in (VerifyScan, Modules, FormulaSweep)}
