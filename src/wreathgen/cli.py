"""Command-line interface.

Every subcommand prints a single JSON document on stdout (keys sorted,
group orders as decimal strings, since they routinely exceed 2**63).

Exit codes: 0 success, 2 bad input, 3 a computation declined to certify
within its budget, 4 the closed form and the oracle disagree.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

from . import modfp
from .formula import counting_profile, d_tower
from .oracle import min_generators
from .permcore import (
    BadInput,
    BudgetExceeded,
    PermGroup,
    bsgs_build,
    format_cycles,
)
from .wreath import (
    example_generators,
    example_tower,
    local_actions,
    parse_group,
    parse_tower,
)

# the oracle works on explicit leaf permutations; past this many leaves
# `verify` reports the formula alone rather than grinding
VERIFY_LEAF_BUDGET = 4096
# `example` holds the pair as permutations of its 12n leaves and prints
# their cycles, all of it linear in n: measured in one process at n =
# 20,001, 50,001 and 100,001, the peak rose 187-188 bytes per leaf over
# the interpreter's 16 MB (100,001: 2.5 s, 231 MB).  `--verify` adds the
# pair's chain, built to |W|: about L^2/20 permutations of the L leaves.
# On a 2-core host every odd n from 23 to 67 raised the peak by 0.38-0.45
# L^3 bytes (n = 67, 804 leaves: 0.96 s, 200 MB).  Past 200 bytes a leaf,
# plus L^3/2 with `--verify`, this budget refuses before anything is built
EXAMPLE_BYTE_BUDGET = 256 * 2 ** 20

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _emit(doc: dict, out) -> None:
    """Print the document, and write it to `out`, the file --out opened."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out not in (None, sys.stdout):  # "--out -" names stdout itself
        with out:
            out.write(text)


def _printable(limit: int, log10: float, exact):
    """exact(), or None when it has more than `limit` decimal digits; a
    log10 past the limit by more than the floats' error decides without
    building it.  No limit (0) prints everything."""
    if limit and log10 > (limit + 1) * (1 + 1e-9):
        return None
    value = exact()
    return None if limit and value >= 10 ** limit else value


def _order_fields(t, leaf_count: bool = False) -> dict:
    """{"order": the tower's order in decimal}, and its "leaf_count" when
    asked; past Python's int-to-string limit (absent before 3.10.7) a
    field is null and a warning names the limit.  The leaf count is at
    most the order, so it is null only when the order is."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    order = _printable(limit, t.log10_order(), t.order)
    doc = {"order": None if order is None else str(order)}
    omitted = "order"
    if leaf_count:
        doc["leaf_count"] = _printable(limit, sum(map(math.log10, t.degrees)), t.leaf_count)
        if doc["leaf_count"] is None:
            omitted = "leaf count and order"
    if order is None:
        doc["warning"] = (f"{omitted} omitted: over {limit} decimal digits, "
                          f"Python's int-to-string limit")
    return doc


def _cmd_formula(args) -> tuple[dict, int]:
    t = parse_tower(args.tower)
    res = d_tower(t)
    doc = {
        "tower": t.text(), "k": t.k, **_order_fields(t, leaf_count=True),
        "d": res.d, "case": res.case,
        "abelianization": {str(p): r for p, r in res.abelianization.items()},
        "counting": None,
    }
    if res.case not in ("Cyclic", "SingleLevel"):  # the counting form's towers
        prof = counting_profile(t)
        # string keys, which the sorted output orders as strings
        doc["counting"] = {"d": res.d, **prof, "c": {str(p): m for p, m in prof["c"].items()}}
    return doc, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    if args.attempts < 0:
        raise BadInput("attempts must be nonnegative")
    t = parse_tower(args.tower)
    res = d_tower(t)
    doc = {
        "tower": t.text(), "d": res.d, "case": res.case, "oracle": None,
        "agree": None, "warning": None, **_order_fields(t),
    }
    if doc["order"] is None:  # a group this large is past any oracle
        doc["warning"] += "; formula only"
        return doc, EXIT_OK
    if t.leaf_count() > VERIFY_LEAF_BUDGET:
        doc["warning"] = (f"{t.leaf_count()} leaves exceed the verification "
                          f"budget of {VERIFY_LEAF_BUDGET}; formula only")
        return doc, EXIT_OK
    oracle = min_generators(t, seed=args.seed, attempts=args.attempts)
    doc["oracle"] = oracle.to_json()
    doc["agree"] = oracle.lower <= res.d <= oracle.upper
    return doc, EXIT_OK if doc["agree"] else EXIT_MISMATCH


# modfp refuses n, p and its budgets itself

def _cmd_module(args) -> tuple[dict, int]:
    report = modfp.check_Ip_structure(args.n, args.p)
    return report.to_json(), EXIT_OK if report.status == "verified" else EXIT_BUDGET


def _cmd_cohom(args) -> tuple[dict, int]:
    spec = parse_group(args.group)
    rep = modfp.cohomology_of_Ip(spec, args.p)
    doc = rep.to_json()
    doc["group"] = spec.token()
    doc["dim_Ip"] = rep.dim
    # I_p has no trivial factor when p does not divide n; when p | n the
    # constants lie in I_p, and dim_fixed is 1
    doc["s"] = rep.dim_H1
    if rep.r is None:  # r is set only when End is scalar
        doc["h"] = None
        doc["warning"] = "endomorphism algebra is not scalar; no h value"
    else:
        doc["h"] = modfp.h_param(doc["s"], rep.r)
    return doc, EXIT_OK


def _cmd_example(args) -> tuple[dict, int]:
    t = example_tower(args.n)
    leaves = t.leaf_count()
    need = 200 * leaves + (leaves ** 3 // 2 if args.verify else 0)
    if need > EXAMPLE_BYTE_BUDGET:
        with_chain = ", with its chain," if args.verify else ""
        raise BudgetExceeded(f"the pair of {leaves} leaves{with_chain} needs about {need} bytes, "
                             f"over the budget of {EXAMPLE_BYTE_BUDGET}")
    x, y = example_generators(args.n)
    doc = {
        "tower": t.text(), "n": args.n, **_order_fields(t, leaf_count=True),
        "x": {"degree": x.degree, "cycles": format_cycles(x)},
        "y": {"degree": y.degree, "cycles": format_cycles(y)},
        "order_x": x.order(), "order_y": y.order(),
        "generates": None,
    }
    if args.verify:
        for w in (x, y):  # refuses one outside W, so reaching |W| proves <x, y> = W
            local_actions(t, w)
        chain = bsgs_build(PermGroup(leaves, (x, y)), t.order())
        doc["generates"] = chain.order() == t.order()
    return doc, EXIT_OK if doc["generates"] in (None, True) else EXIT_MISMATCH


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    a run of many in-process calls pays for it once."""
    ap = argparse.ArgumentParser(
        prog="wreathgen",
        description="Minimal generator counts of iterated wreath products.")
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("formula", help="closed-form d for a tower")
    f.add_argument("--tower", required=True,
                   help="semicolon tower, root level first (e.g. A5;C3;C2;C2)")
    f.set_defaults(func=_cmd_formula)

    v = sub.add_parser("verify", help="formula versus brute-force oracle")
    v.add_argument("--tower", required=True)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--attempts", type=int, default=200,
                   help="random witness attempts per tuple size")
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("module", help="structure of I_p inside F_p^n under Alt(n)")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--p", type=int, required=True)
    m.set_defaults(func=_cmd_module)

    c = sub.add_parser("cohom", help="1-cocycle dimensions on I_p")
    c.add_argument("--group", required=True, help="group token such as A5")
    c.add_argument("--p", type=int, required=True)
    c.set_defaults(func=_cmd_cohom)

    e = sub.add_parser("example", help="the explicit two-generator pair")
    e.add_argument("--n", type=int, required=True, help="odd top degree >= 5")
    e.add_argument("--verify", action="store_true",
                   help="certify that the pair generates the tower group "
                        "(n <= 67 within the byte budget)")
    e.set_defaults(func=_cmd_example)

    for p in (f, v, m, c, e):
        # argparse opens FILE, so a path it cannot write exits 2 before any work
        p.add_argument("--out", type=argparse.FileType("w"), default=None, metavar="FILE",
                       help="also write the JSON document to FILE")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.func(args)
    except BadInput as e:  # refused by the module that owns the rule
        doc, code = {"error": str(e)}, EXIT_USAGE
    except BudgetExceeded as e:  # an unfactored degree, or a chain, example or modfp budget
        doc, code = {"error": str(e)}, EXIT_BUDGET
    _emit(doc, args.out)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
