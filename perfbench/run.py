"""wreathgen benchmark: one workload, timed passes, checked outputs.

    python3 perfbench/run.py --workload verify-scan --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with --trace 1
one pass runs untraced and then one traced, and the metrics are the
per-layer ones (see perfbench/NOTES.md).  The first stdout line is a
header with machine facts and source line counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# Every workload is single-threaded.  Without this, OpenBLAS starts a thread
# per core when numpy is imported, and import time jumps between two modes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PACKAGE = ROOT / "src" / "wreathgen"
OUT_DIR = HERE / "out"

# set-up probes are spread over the run, between passes, so one slow spell
# on the host does not set their median
SETUP_PROBES = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify-scan", "modules", "formula-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload and exit; used to time set-up")
    return ap.parse_args(argv)


def header() -> dict:
    import numpy

    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip().endswith("cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    loc = {f"loc.{p.stem}": len(p.read_text().splitlines())
           for p in sorted(SRC_PACKAGE.glob("*.py"))}
    loc["loc.total"] = sum(loc.values())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "caches": caches, **loc}


def time_setup(args, probes: int) -> list[float]:
    """Wall times of fresh processes that import, build the inputs and
    warm up, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(probes):
        # a pipe, not DEVNULL: with a timeout and no pipe to select on,
        # subprocess polls for the exit with sleeps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=170, stdout=subprocess.PIPE)
        samples.append(time.perf_counter() - t0)
    return samples


def pass_count(wl, seconds: float) -> int:
    """Passes in a run: about `seconds` of timed work at the first version.
    The count does not depend on how fast the code is, so every unit gets
    the same number of tries at a fast run whatever the code's speed."""
    return max(1, round(seconds / wl.pass_s))


class Run:
    """`passes` whole passes over the workload's items, in item order.

    Items are timed in units of `wl.unit` consecutive items and checked as
    soon as their unit returns, outside the timed region.  Slowdowns on a
    shared host only ever add time, so items_per_s is the items of a pass
    over the sum of each unit's fastest time.  `between(gap)` runs before each pass and after the last
    (gap 0..passes), outside the timed region.
    """

    def __init__(self, wl, passes: int, tracer=None, between=None):
        self.wl = wl
        self.tracer = tracer
        self.starts = range(0, len(wl.items), wl.unit)
        self.unit_times: list[list[float]] = [[] for _ in self.starts]
        self.pass_times: list[float] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.exact = 0
        self.problems: list[str] = []
        # the CPUs of a shared host slow down independently of each other,
        # so passes alternate between them and each unit gets runs on both
        cpus = sorted(os.sched_getaffinity(0))
        try:
            for n in range(passes):
                os.sched_setaffinity(0, {cpus[n % len(cpus)]})
                if between:
                    between(n)
                self._run_pass(n)
        finally:
            os.sched_setaffinity(0, cpus)
        if between:
            between(passes)

    def _run_unit(self, chunk, first_id: int) -> tuple[list, float]:
        run, tr = self.wl.run_item, self.tracer
        results = []
        t0 = time.perf_counter()
        for item_id, item in enumerate(chunk, first_id):
            if tr is not None:
                idx = tr.open_item(item_id)
            try:
                results.append(run(item))
            except Exception:
                results.append(traceback.format_exc())
            finally:
                if tr is not None:
                    tr.close(idx)
        return results, time.perf_counter() - t0

    def _run_pass(self, n: int) -> None:
        wl = self.wl
        elapsed = 0.0
        digest = 0
        failed = 0
        lines = []
        for times, start in zip(self.unit_times, self.starts):
            chunk = wl.items[start:start + wl.unit]
            results, dt = self._run_unit(chunk, n * len(wl.items) + start)
            times.append(dt)
            elapsed += dt
            for item, result in zip(chunk, results):
                problems = [result] if isinstance(result, str) else wl.check(item, result)
                if problems:
                    failed += 1
                    lines.append(f"{item}: {problems[0]}")
                elif n == 0 and wl.is_exact(result):
                    self.exact += 1
                digest += wl.result_hash(result)
        digest = f"{digest % 2 ** 128:032x}"
        pass_problems = wl.check_pass(len(wl.items), digest)
        if pass_problems:
            failed = len(wl.items)
            lines.insert(0, f"every item of pass {n}: {pass_problems[0]}")
        self.failed += failed
        self.problems += lines
        self.attempted += len(wl.items)
        self.pass_times.append(elapsed)
        self.digests.append(digest)

    @property
    def exact_ratio(self) -> float:
        """Share of the first pass that came back exact or verified."""
        return self.exact / len(self.wl.items)

    @property
    def items_per_s(self) -> float:
        return len(self.wl.items) / sum(map(min, self.unit_times))


def report_problems(run: Run) -> None:
    for line in run.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)


def run_untraced(args, wl) -> dict:
    passes = pass_count(wl, args.seconds)
    # gap g (before pass g, or after the last) gets the probes nearest to it
    plan = Counter(round(i * passes / (SETUP_PROBES - 1)) for i in range(SETUP_PROBES))
    setup: list[float] = []
    w = Run(wl, passes, between=lambda gap: setup.extend(time_setup(args, plan[gap])))
    setup_s = statistics.median(setup)
    report_problems(w)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "items_per_s": {"value": w.items_per_s, "unit": "1/s"},
        "exact_ratio": {"value": w.exact_ratio, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    print("pass_s " + " ".join(f"{t:.4f}" for t in w.pass_times)
          + " setup_s " + " ".join(f"{t:.4f}" for t in setup), file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {passes} passes of {len(wl.items)} items, "
          f"items_per_s={w.items_per_s:.6g} 1/s, exact_ratio={w.exact_ratio:.4g}, "
          f"failed_ratio={w.failed / w.attempted:.4g}, setup_s={setup_s:.4g} s, "
          f"peak_rss_mb={peak_rss_mb:.5g} MB")
    return {"correct": w.failed == 0, "attempted": w.attempted, "failed": w.failed,
            "metrics": metrics}


def run_traced(args, wl, head: dict) -> dict:
    import numpy as np
    import tracer as tracing

    # one pass each: the per-layer figures describe one pass, and a formula
    # sweep pass alone records over 600,000 spans
    plain = Run(wl, 1)
    tr = tracing.Tracer()
    with tracing.patched(tr):
        traced = Run(wl, 1, tr)
    failed = plain.failed + traced.failed
    report_problems(plain)
    report_problems(traced)
    # tracing must not change a single output
    if plain.digests != traced.digests:
        failed += len(wl.items)
        print("FAILED the traced pass's results differ from the untraced pass's",
              file=sys.stderr)

    wall = traced.pass_times[0]
    per_name = tr.per_name()
    bench_self = per_name[tracing.ITEM_SPAN]["self_s"]
    cli_self = per_name.get("cli.main", {}).get("self_s", 0.0)
    layer = tracing.layer_metrics(tr)
    layer["trace.items_per_s"] = (traced.items_per_s, "1/s")
    layer["trace.untraced_items_per_s"] = (plain.items_per_s, "1/s")
    layer["trace.overhead_ratio"] = (plain.items_per_s / traced.items_per_s - 1, "ratio")
    layer["trace.library_share"] = (1 - (bench_self + cli_self) / wall, "ratio")
    layer["trace.bench_self_share"] = (bench_self / wall, "ratio")
    layer["trace.spans"] = (len(tr), "count")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{args.workload}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"header": head, "workload": args.workload, "seed": args.seed,
                   "wall_s": wall, "spans": per_name,
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez(f"{stem}.npz", names=np.array(tr.names), **tr.arrays())
    print(f"{args.workload} seed={args.seed} traced: {len(tr)} spans in one pass, "
          f"overhead {layer['trace.overhead_ratio'][0]:.3g}, "
          f"library share {layer['trace.library_share'][0]:.4f}; wrote {stem}.json")
    return {"correct": failed == 0, "attempted": plain.attempted + traced.attempted,
            "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"wreathgen sources not found at {SRC_PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        wl.warm_up()
    except Exception:
        # a broken program still gets a result: its timed items fail their checks
        traceback.print_exc()
    if args.setup_probe:
        return 0
    head = header()
    print(json.dumps({"header": head}, sort_keys=True))
    if args.trace:
        result = run_traced(args, wl, head)
    else:
        result = run_untraced(args, wl)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
