"""Alternating parent/change benchmark pairs, folded into one BENCH_<n>.json.

    python3 tools/benchpairs.py --parent ../parent --change . \\
        --workload verify-scan --seeds 1-10 --seconds 25 --out BENCH_5.json

--parent and --change are two checkouts of the repository.  Before the
first pair, `src` and `perfbench` of both are byte-compiled by this
interpreter, so `setup_s` times imports from bytecode on both sides,
whatever earlier runs (or PYTHONDONTWRITEBYTECODE) left behind.  For each
workload and seed, `perfbench/run.py --trace 0` runs once in each checkout,
one process at a time; the side that runs first alternates from seed to
seed, so a slow spell of the host does not always fall on the same side.
With --trace-seed N each workload also gets one `--trace 1` run per side.

The output has the layout of BENCH_4.json: `what`, `machine`, `src_loc`,
`workloads.<w>.pairs` (one entry per seed: both sides' end-to-end metrics
and [failed, attempted]) and `workloads.<w>.summary` (per metric: each
side's quartiles, the parent's IQR, the ratio of the medians, how many
pairs each side won, in the direction BENCHMARK.json gives, `claim`,
whether the pairs meet the rule for claiming a gain, `within_bound`,
whether the change's median is no worse than the parent's by more than
the metric's bound in BENCHMARK.json, and `unresolved`, whether the
parent's spread is too wide to tell; and the failure share: each side's
`failed_ratio` and `failed_not_worse`), plus `<w>_trace` for the traced
runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """"1-10" or "1,3,5" (or a mix) -> seeds in the order given."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def compile_checkout(checkout: Path) -> None:
    """Byte-compile the checkout's `src` and `perfbench` with this interpreter."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One benchmark process in `checkout`; returns (header, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    header = json.loads(lines[0])["header"]
    result = json.loads(lines[-1])
    print(lines[-2] if len(lines) > 2 else lines[-1], f"[{checkout}]", file=sys.stderr)
    return header, result


def values(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of `metrics` (BENCHMARK.json's `end_to_end` entries:
    name, better, bound): quartiles of each side, the parent's IQR, the
    ratio of the medians, the pairs each side won, whether a gain may be
    claimed, whether the change stayed within the bound and whether the
    parent's spread leaves that unresolved; empty below two pairs.

    `claim` holds when the change won at least nine tenths of the pairs
    (ties count for neither side) and its median is better than the
    parent's by more than the parent's IQR.  `within_bound` holds when the
    change's median is worse than the parent's by at most `bound` times
    the parent's median.  `unresolved` holds when the parent's IQR is
    wider than `bound` times its median, so the bound cannot be told
    apart from the spread, unless every change run beats every parent run.
    """
    if len(pairs) < 2:
        return {}
    out = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        qp, qc = statistics.quantiles(par, n=4), statistics.quantiles(chg, n=4)
        change_wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        out[name] = {
            "better": direction,
            "parent": dict(zip(("q1", "median", "q3"), qp)),
            "change": dict(zip(("q1", "median", "q3"), qc)),
            "parent_iqr": qp[2] - qp[0],
            "median_change_ratio": qc[1] / qp[1] if qp[1] else None,
            "change_wins": change_wins,
            "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(par, chg)),
            "pairs": len(pairs),
            "claim": (10 * change_wins >= 9 * len(pairs)
                      and sign * (qc[1] - qp[1]) > qp[2] - qp[0]),
            "bound": metric["bound"],
            "within_bound": sign * (qc[1] - qp[1]) >= -metric["bound"] * abs(qp[1]),
            "unresolved": (qp[2] - qp[0] > metric["bound"] * abs(qp[1])
                           and min(sign * c for c in chg) <= max(sign * p for p in par)),
        }
    return out


def failure_share(pairs: list[dict]) -> dict:
    """`failed_ratio`: per side, the failed operations summed over the
    pairs, over the attempted ones summed likewise (0 when none were
    attempted); `failed_not_worse`: whether the change's ratio is at most
    the parent's.  Each pair's `failed` maps a side to [failed, attempted]."""
    ratio = {}
    for side in ("parent", "change"):
        failed = sum(p["failed"][side][0] for p in pairs)
        attempted = sum(p["failed"][side][1] for p in pairs)
        ratio[side] = failed / attempted if attempted else 0.0
    return {"failed_ratio": ratio, "failed_not_worse": ratio["change"] <= ratio["parent"]}


def src_loc(header: dict) -> dict:
    return {k.removeprefix("loc."): v for k, v in header.items() if k.startswith("loc.")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="repeat for several workloads; they run one after another")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "1-10"')
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also make one traced run per side at this seed")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"what": (f"parent vs change, python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {args.seconds:g} --trace 0, one pair per seed, the side "
                    f"that runs first alternating"),
           "machine": {}, "src_loc": {}, "workloads": {}}
    for checkout in sides.values():
        compile_checkout(checkout)
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0], "failed": {}}
            for side in order:
                header, result = run_side(sides[side], workload, seed, args.seconds, 0)
                pair[side] = values(result)
                pair["failed"][side] = [result["failed"], result["attempted"]]
                doc["src_loc"][side] = src_loc(header)
                doc["machine"] = {k: header[k] for k in ("nproc", "python", "numpy", "caches")}
            pairs.append({k: pair[k] for k in ("seed", "first", "parent", "change", "failed")})
        doc["workloads"][workload] = {
            "pairs": pairs,
            "summary": summarize(pairs, bench["end_to_end"]) | failure_share(pairs)}
        if args.trace_seed is not None:
            doc[f"{workload}_trace"] = {
                side: values(run_side(sides[side], workload, args.trace_seed, args.seconds, 1)[1])
                for side in ("parent", "change")}
        # written after every workload, so an interrupted run keeps what it has
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
