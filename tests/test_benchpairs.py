"""The pair summary of tools/benchpairs.py: quartiles, IQR, wins, the
claim rule, the regression bound, the unresolved flag and the failure
share."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


def _metrics(bound=0.25, **better):
    """BENCHMARK.json-style `end_to_end` entries, one per keyword."""
    return [{"name": name, "better": way, "bound": bound} for name, way in better.items()]


def test_parse_seeds():
    assert benchpairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert benchpairs.parse_seeds("7,2-3") == [7, 2, 3]


def test_summary_counts_wins_in_the_metric_direction():
    pairs = [{"parent": {"rate": p, "rss": p}, "change": {"rate": c, "rss": c}}
             for p, c in [(1, 2), (2, 3), (3, 3), (4, 1), (5, 6)]]
    s = benchpairs.summarize(pairs, _metrics(rate="higher", rss="lower"))
    assert (s["rate"]["change_wins"], s["rate"]["parent_wins"]) == (3, 1)
    assert (s["rss"]["change_wins"], s["rss"]["parent_wins"]) == (1, 3)
    # statistics.quantiles, exclusive method: 1.5, 3, 4.5 for 1..5
    assert s["rate"]["parent"] == {"q1": 1.5, "median": 3, "q3": 4.5}
    assert s["rate"]["parent_iqr"] == 3
    assert s["rate"]["median_change_ratio"] == pytest.approx(3 / 3)
    assert s["rate"]["pairs"] == 5
    assert benchpairs.summarize(pairs[:1], _metrics(rate="higher")) == {}
    assert s["rate"]["claim"] is False and s["rss"]["claim"] is False


def _pairs(parent, change):
    return [{"parent": {"rate": p, "rss": p}, "change": {"rate": c, "rss": c}}
            for p, c in zip(parent, change)]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_iqr():
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # IQR 5.5
    # ten wins, medians 6 apart: the claim holds
    s = benchpairs.summarize(_pairs(parent, [p + 6 for p in parent]),
                             _metrics(rate="higher", rss="lower"))
    assert s["rate"]["parent_iqr"] == 5.5 and s["rate"]["change_wins"] == 10
    assert s["rate"]["claim"] is True and s["rss"]["claim"] is False
    # the same pairs in the lower-is-better direction
    s = benchpairs.summarize(_pairs(parent, [p - 6 for p in parent]), _metrics(rss="lower"))
    assert s["rss"]["claim"] is True
    # ten wins, but the medians are 5 apart, within the parent's IQR
    s = benchpairs.summarize(_pairs(parent, [p + 5 for p in parent]), _metrics(rate="higher"))
    assert s["rate"]["change_wins"] == 10 and s["rate"]["claim"] is False
    # a large gap, but one loss and one tie leave 8 wins of 10
    change = [p + 20 for p in parent[:8]] + [parent[8] - 1, parent[9]]
    s = benchpairs.summarize(_pairs(parent, change), _metrics(rate="higher"))
    assert (s["rate"]["change_wins"], s["rate"]["parent_wins"]) == (8, 1)
    assert s["rate"]["claim"] is False
    # 9 wins of 10 is enough
    change = [p + 20 for p in parent[:9]] + [parent[9]]
    assert benchpairs.summarize(_pairs(parent, change), _metrics(rate="higher"))["rate"]["claim"]


def test_within_bound_allows_the_metric_bound_in_its_direction():
    parent = [96, 98, 100, 100, 100, 102, 104]  # median 100

    def within(shift, bound, better):
        pairs = _pairs(parent, [p + shift for p in parent])
        s = benchpairs.summarize(pairs, _metrics(bound, rate=better))["rate"]
        assert s["bound"] == bound
        return s["within_bound"]

    # 25 % worse is within a bound of 0.25 in either direction, 26 % is not
    assert within(-25, 0.25, "higher") is True
    assert within(-26, 0.25, "higher") is False
    assert within(25, 0.25, "lower") is True
    assert within(26, 0.25, "lower") is False
    # a better median is within any bound
    assert within(50, 0.0, "higher") is True
    assert within(-50, 0.0, "lower") is True
    # with a parent median of 0, "no worse by more than the bound" means no worse
    for change, want in [((0, 0, 1), True), ((1, 1, 0), False)]:
        pairs = [{"parent": {"fail": 0}, "change": {"fail": c}} for c in change]
        assert benchpairs.summarize(pairs, _metrics(fail="lower"))["fail"]["within_bound"] is want


def test_unresolved_when_the_parent_spread_is_wider_than_the_bound():
    parent = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]  # median 105, IQR 55

    def summary(change, bound):
        return benchpairs.summarize(_pairs(parent, change), _metrics(bound, rate="higher"))["rate"]

    # IQR 55 > 0.25 * 105: a change 10 worse is within the bound, but the
    # spread cannot tell it from no change
    s = summary([p - 10 for p in parent], 0.25)
    assert s["within_bound"] is True and s["unresolved"] is True
    # a bound wider than the spread resolves it
    assert summary([p - 10 for p in parent], 0.6)["unresolved"] is False
    # every change run beating every parent run resolves it too
    assert summary([p + 100 for p in parent], 0.25)["unresolved"] is False
    # one change run at the best parent run's value does not
    assert summary([150] + [p + 100 for p in parent[1:]], 0.25)["unresolved"] is True
    # in the lower-is-better direction, every change run below every parent run
    s = benchpairs.summarize(_pairs(parent, [p - 100 for p in parent]),
                             _metrics(0.25, rss="lower"))["rss"]
    assert s["unresolved"] is False


def test_failure_share_sums_over_the_pairs_and_flags_a_larger_one():
    def share(*failed):
        return benchpairs.failure_share([{"failed": {"parent": p, "change": c}}
                                         for p, c in failed])

    # 1 of 40 against 0 of 40: the change fails a larger share
    s = share(([0, 20], [1, 20]), ([0, 20], [0, 20]))
    assert s["failed_ratio"] == {"parent": 0.0, "change": 1 / 40}
    assert s["failed_not_worse"] is False
    # ratios of the sums, not means of per-pair ratios: 2/20 against 2/22
    s = share(([2, 10], [0, 2]), ([0, 10], [2, 20]))
    assert s["failed_ratio"] == {"parent": 2 / 20, "change": 2 / 22}
    assert s["failed_not_worse"] is True
    # equal shares, and nothing attempted, are not worse
    assert share(([1, 10], [2, 20]))["failed_not_worse"] is True
    assert share(([0, 0], [0, 0]))["failed_ratio"] == {"parent": 0.0, "change": 0.0}


def _checkout(root: Path) -> Path:
    """A checkout with one module under each compiled directory and a
    BENCHMARK.json without end-to-end metrics."""
    for rel in ("src/pkg/mod.py", "perfbench/bench.py"):
        (root / rel).parent.mkdir(parents=True)
        (root / rel).write_text("X = 1\n")
    (root / "BENCHMARK.json").write_text('{"end_to_end": []}')
    return root


def test_both_checkouts_are_compiled_before_the_first_pair(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    events = []
    compile_checkout = benchpairs.compile_checkout

    def compiled(checkout):
        compile_checkout(checkout)
        events.append(("compiled", checkout))

    def ran(checkout, workload, seed, seconds, trace):
        events.append(("ran", checkout))
        header = {"nproc": 2, "python": "3", "numpy": "2", "caches": {}}
        return header, {"metrics": {}, "failed": 0, "attempted": 1}

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(benchpairs, "compile_checkout", compiled)
    monkeypatch.setattr(benchpairs, "run_side", ran)
    assert benchpairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w",
                            "--seeds", "1-2", "--out", str(tmp_path / "out.json")]) == 0
    sides = {parent.resolve(), change.resolve()}
    assert {c for _, c in events[:2]} == sides and [e for e, _ in events[:2]] == ["compiled"] * 2
    assert [e for e, _ in events[2:]] == ["ran"] * 4
    # with bytecode writing switched off for imports, compileall still writes it
    for side in sides:
        for rel in ("src/pkg/mod.py", "perfbench/bench.py"):
            assert Path(importlib.util.cache_from_source(str(side / rel))).is_file()
