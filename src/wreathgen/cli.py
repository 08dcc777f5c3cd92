"""Command-line interface.

Every subcommand prints a single JSON document on stdout (keys sorted,
group orders as decimal strings, since they routinely exceed 2**63).

Exit codes: 0 success, 2 bad input, 3 a computation declined to certify
within its budget, 4 the closed form and the oracle disagree.
"""

from __future__ import annotations

import argparse
import json
import sys

from .formula import CyclicTopError, counting_profile, d_corollary, d_tower
from .modfp import (
    BudgetExceeded,
    FpModule,
    NonScalarEndomorphism,
    alt_group,
    aug_submodule,
    check_Ip_structure,
    cocycle_dims,
    h_param,
    require_scalar_end,
    s_param,
)
from .oracle import GenSearchConfig, min_generators
from .permcore import ParseError, PermGroup, bsgs_build, prime_factorization
from .wreath import (
    TrivialLevelError,
    example_generators,
    example_tower,
    parse_group,
    parse_tower,
    standard_generators,
    tower_group,
)

# the oracle works on explicit leaf permutations; past this many leaves
# `verify` reports the formula alone rather than grinding
VERIFY_LEAF_BUDGET = 4096

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _fail(message: str, out: str | None) -> int:
    _emit({"error": message}, out)
    return EXIT_USAGE


def _is_prime(p: int) -> bool:
    return prime_factorization(p) == {p: 1}


def _cmd_formula(args) -> int:
    try:
        t = parse_tower(args.tower)
    except (ParseError, TrivialLevelError) as e:
        return _fail(str(e), args.out)
    res = d_tower(t)
    doc = {
        "tower": t.text(), "k": t.k, "leaf_count": t.leaf_count(),
        "order": str(t.order()), "d": res.d, "case": res.case,
        "abelianization": res.abelianization.to_json(),
    }
    try:
        prof = counting_profile(t)
        doc["counting"] = {
            "d": d_corollary(t), "a4": prof.a4, "s": prof.s,
            "c": {str(p): m for p, m in sorted(prof.c.items())},
        }
    except (CyclicTopError, ValueError):
        doc["counting"] = None
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.attempts < 0:
        return _fail("attempts must be nonnegative", args.out)
    if args.order_limit < 1:
        return _fail("order limit must be at least 1", args.out)
    try:
        t = parse_tower(args.tower)
    except (ParseError, TrivialLevelError) as e:
        return _fail(str(e), args.out)
    res = d_tower(t)
    doc = {
        "tower": t.text(), "order": str(t.order()), "d": res.d,
        "case": res.case, "oracle": None, "agree": None, "warning": None,
    }
    if t.leaf_count() > VERIFY_LEAF_BUDGET:
        doc["warning"] = (f"{t.leaf_count()} leaves exceed the verification "
                          f"budget of {VERIFY_LEAF_BUDGET}; formula only")
        _emit(doc, args.out)
        return EXIT_OK
    cfg = GenSearchConfig(seed=args.seed, random_attempts=args.attempts,
                          exhaustive_order_limit=args.order_limit)
    oracle = min_generators(tower_group(t), cfg)
    doc["oracle"] = oracle.to_json()
    if oracle.status == "exact":
        doc["agree"] = oracle.lower == res.d
    else:
        doc["agree"] = oracle.lower <= res.d <= oracle.upper
    _emit(doc, args.out)
    return EXIT_OK if doc["agree"] else EXIT_MISMATCH


def _cmd_module(args) -> int:
    if args.n < 4:
        return _fail("n must be at least 4", args.out)
    if not _is_prime(args.p):
        return _fail("p must be prime", args.out)
    report = check_Ip_structure(args.n, args.p)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.status == "verified" else EXIT_BUDGET


def _cmd_cohom(args) -> int:
    try:
        spec = parse_group(args.group).normalized()
    except (ParseError, TrivialLevelError) as e:
        return _fail(str(e), args.out)
    if not _is_prime(args.p):
        return _fail("p must be prime", args.out)
    g = PermGroup(spec.n, standard_generators(spec))
    mod = FpModule.natural(g, args.p)
    ip = aug_submodule(mod)
    try:
        rep = cocycle_dims(g, ip)
    except BudgetExceeded as e:
        _emit({"error": str(e)}, args.out)
        return EXIT_BUDGET
    doc = rep.to_json()
    doc["group"] = spec.token()
    doc["dim_Ip"] = ip.dim
    doc["s"] = s_param(0, rep.dim_H1)
    try:
        r = require_scalar_end(ip)
        doc["h"] = h_param(doc["s"], r)
    except NonScalarEndomorphism:
        doc["h"] = None
        doc["warning"] = "endomorphism algebra is not scalar; no h value"
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_example(args) -> int:
    if args.n < 5 or args.n % 2 == 0:
        return _fail("the example pair needs odd n >= 5", args.out)
    t = example_tower(args.n)
    x, y = example_generators(args.n)
    doc = {
        "tower": t.text(), "n": args.n, "leaf_count": t.leaf_count(),
        "order": str(t.order()),
        "x": x.to_json(), "y": y.to_json(),
        "order_x": x.order(), "order_y": y.order(),
        "generates": None,
    }
    if args.verify:
        chain = bsgs_build(PermGroup(t.leaf_count(), (x.perm, y.perm)))
        doc["generates"] = chain.order() == t.order()
    _emit(doc, args.out)
    return EXIT_OK if doc["generates"] in (None, True) else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
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
    v.add_argument("--order-limit", type=int, default=20000,
                   help="largest group order eligible for exhaustive scans")
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
                   help="certify that the pair generates the tower group")
    e.set_defaults(func=_cmd_example)

    for p in (f, v, m, c, e):
        p.add_argument("--out", default=None, metavar="FILE",
                       help="also write the JSON document to FILE")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
