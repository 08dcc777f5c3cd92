"""The pair summary of tools/benchpairs.py: quartiles, IQR and wins."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


def test_parse_seeds():
    assert benchpairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert benchpairs.parse_seeds("7,2-3") == [7, 2, 3]


def test_summary_counts_wins_in_the_metric_direction():
    pairs = [{"parent": {"rate": p, "rss": p}, "change": {"rate": c, "rss": c}}
             for p, c in [(1, 2), (2, 3), (3, 3), (4, 1), (5, 6)]]
    s = benchpairs.summarize(pairs, {"rate": "higher", "rss": "lower"})
    assert (s["rate"]["change_wins"], s["rate"]["parent_wins"]) == (3, 1)
    assert (s["rss"]["change_wins"], s["rss"]["parent_wins"]) == (1, 3)
    # statistics.quantiles, exclusive method: 1.5, 3, 4.5 for 1..5
    assert s["rate"]["parent"] == {"q1": 1.5, "median": 3, "q3": 4.5}
    assert s["rate"]["parent_iqr"] == 3
    assert s["rate"]["median_change_ratio"] == pytest.approx(3 / 3)
    assert s["rate"]["pairs"] == 5
    assert benchpairs.summarize(pairs[:1], {"rate": "higher"}) == {}
    assert s["rate"]["claim"] is False and s["rss"]["claim"] is False


def _pairs(parent, change):
    return [{"parent": {"rate": p, "rss": p}, "change": {"rate": c, "rss": c}}
            for p, c in zip(parent, change)]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_iqr():
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # IQR 5.5
    # ten wins, medians 6 apart: the claim holds
    s = benchpairs.summarize(_pairs(parent, [p + 6 for p in parent]),
                             {"rate": "higher", "rss": "lower"})
    assert s["rate"]["parent_iqr"] == 5.5 and s["rate"]["change_wins"] == 10
    assert s["rate"]["claim"] is True and s["rss"]["claim"] is False
    # the same pairs in the lower-is-better direction
    s = benchpairs.summarize(_pairs(parent, [p - 6 for p in parent]), {"rss": "lower"})
    assert s["rss"]["claim"] is True
    # ten wins, but the medians are 5 apart, within the parent's IQR
    s = benchpairs.summarize(_pairs(parent, [p + 5 for p in parent]), {"rate": "higher"})
    assert s["rate"]["change_wins"] == 10 and s["rate"]["claim"] is False
    # a large gap, but one loss and one tie leave 8 wins of 10
    change = [p + 20 for p in parent[:8]] + [parent[8] - 1, parent[9]]
    s = benchpairs.summarize(_pairs(parent, change), {"rate": "higher"})
    assert (s["rate"]["change_wins"], s["rate"]["parent_wins"]) == (8, 1)
    assert s["rate"]["claim"] is False
    # 9 wins of 10 is enough
    change = [p + 20 for p in parent[:9]] + [parent[9]]
    assert benchpairs.summarize(_pairs(parent, change), {"rate": "higher"})["rate"]["claim"]
