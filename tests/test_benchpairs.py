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
