"""Spans around wreathgen's public functions, recorded from outside src/.

`patched(tracer)` replaces each traced function at every place it is
looked up: the module that defines it and every module that imported it
by name (`oracle.bsgs_build` and `permcore.bsgs_build` are separate
bindings), plus the class attribute for methods.  Each wrapper records
one span (name, start, end, parent span, item id) in flat arrays, so a
pass with a million spans stays small.  Counters that a span alone cannot
give (table bytes, class reps, certificates) are read from return values
after the span closes.  Everything is restored when the context exits.
"""

from __future__ import annotations

import functools
import re
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# run.py and the self-tests import workloads first, which puts src/ on sys.path
import wreathgen
from wreathgen import cli, formula, modfp, oracle, permcore, wreath

MODULES = (cli, formula, wreath, permcore, oracle, modfp)
ITEM_SPAN = "bench.item"


class Tracer:
    """In-memory span store for one single-threaded traced window."""

    def __init__(self):
        self.names: list[str] = [ITEM_SPAN]
        self._ids = {ITEM_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.scanned_tables: set[tuple[int, int]] = set()
        self._stack = [-1]
        self._item = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def open_item(self, item_id: int) -> int:
        self._item = item_id
        return self.open(0)

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def per_name(self) -> dict[str, dict]:
        """calls, inclusive seconds and self seconds for every span name.

        Self time is a span's duration minus the time its child spans
        cover; no traced function calls itself, so inclusive sums do not
        double count.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_t, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose parent span is a parent_name span."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        a = self.arrays()
        kids = (a["name"] == self._ids[child_name]) & (a["parent"] >= 0)
        return int(np.count_nonzero(a["name"][a["parent"][kids]] == self._ids[parent_name]))


# ---------------------------------------------------------------------------
# counters read from return values


def _bsgs_built(tr, idx, args, chain):
    tr.counters["permcore.bsgs.strong_gens"] += len(chain._strong)
    tr.counters["permcore.bsgs.base_len"] += len(chain.base)
    side = "deg_le255_s" if args[0].degree <= 255 else "deg_gt255_s"
    tr.counters[f"permcore.bsgs_build.{side}"] += tr.duration(idx)


def _table_built(tr, idx, args, table):
    tr.counters["oracle.CayleyTable.build.elements"] += len(table)
    tr.counters["oracle.CayleyTable.build.bytes"] += table.table.nbytes


def _class_reps(tr, idx, args, reps):
    tr.counters["oracle.conjugacy_class_reps.reps"] += len(reps)


def _scan(tr, idx, args, found):
    # a table lives for one item, so (item, id) names it uniquely
    tr.scanned_tables.add((tr._item, id(args[0])))


def _witness(tr, idx, args, found):
    tr.counters["oracle.witness_hits"] += found is not None


def _certificate(tr, idx, args, result):
    kind = re.sub(r"\(.*\)$", "", result.lower_certificate)
    tr.counters[f"oracle.certificates.{kind}"] += 1


def _ip_report(tr, idx, args, report):
    tr.counters["modfp.checked_vectors"] += report.checked_vectors


def _cohom_report(tr, idx, args, report):
    tr.counters["modfp.cocycle.elements"] += report.group_order


# (defining module, attribute, span name, counter hook)
FUNCTIONS = [
    (cli, "main", "cli.main", None),
    (formula, "d_tower", "formula.d_tower", None),
    (formula, "d_corollary", "formula.d_corollary", None),
    (formula, "counting_profile", "formula.counting_profile", None),
    (formula, "abelianization", "formula.abelianization", None),
    (wreath, "parse_tower", "wreath.parse_tower", None),
    (wreath, "tower_group", "wreath.tower_group", None),
    (wreath, "tower_generators", "wreath.tower_generators", None),
    (permcore, "bsgs_build", "permcore.bsgs_build", _bsgs_built),
    (permcore, "derived_subgroup", "permcore.derived_subgroup", None),
    (permcore, "abelian_p_ranks", "permcore.abelian_p_ranks", None),
    (oracle, "min_generators", "oracle.min_generators", _certificate),
    (oracle, "d_lower_bound", "oracle.d_lower_bound", None),
    (oracle, "find_generating_tuple", "oracle.find_generating_tuple", _witness),
    (oracle, "_scan_for_generating_tuple", "oracle.scan_for_generating_tuple", _scan),
    (modfp, "check_Ip_structure", "modfp.check_Ip_structure", _ip_report),
    (modfp, "spin", "modfp.spin", None),
    (modfp, "cocycle_dims", "modfp.cocycle_dims", _cohom_report),
    (modfp, "endomorphism_dim", "modfp.endomorphism_dim", None),
    (modfp, "fixed_points", "modfp.fixed_points", None),
]

# (class, attribute, span name, counter hook)
METHODS = [
    (oracle.CayleyTable, "build", "oracle.CayleyTable.build", _table_built),
    (oracle.CayleyTable, "closure_size", "oracle.closure_size", None),
    (oracle.CayleyTable, "conjugacy_class_reps", "oracle.conjugacy_class_reps", _class_reps),
    (permcore.Bsgs, "extend", "permcore.Bsgs.extend", None),
    (permcore.Bsgs, "contains", "permcore.Bsgs.contains", None),
    (modfp.RowSpace, "insert", "modfp.RowSpace.insert", None),
]


def _wrap(tr: Tracer, span: str, fn, hook):
    nid = tr.name_id(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if hook is not None:
            hook(tr, idx, args, result)
        return result

    return traced


def bindings(fn) -> list[tuple[object, str]]:
    """Every (module, name) in wreathgen that is bound to fn."""
    return [(mod, name) for mod in (wreathgen,) + MODULES
            for name, value in vars(mod).items() if value is fn]


@contextmanager
def patched(tr: Tracer):
    """Trace every listed function and method while the context is open."""
    saved = []
    try:
        for home, attr, span, hook in FUNCTIONS:
            fn = getattr(home, attr)
            wrapper = _wrap(tr, span, fn, hook)
            for mod, name in bindings(fn):
                saved.append((mod, name, fn))
                setattr(mod, name, wrapper)
        for cls, attr, span, hook in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tr, span, raw.__func__, hook))
            else:
                wrapped = _wrap(tr, span, raw, hook)
            saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        yield tr
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of what the tracer recorded."""
    names = tr.per_name()
    c = tr.counters

    def calls(span):
        return names.get(span, {}).get("calls", 0)

    def secs(span):
        return names.get(span, {}).get("s", 0.0)

    chains = tr.children_of("oracle.find_generating_tuple", "permcore.bsgs_build")
    built = calls("oracle.CayleyTable.build")
    out = {
        "oracle.closure_size.calls": (calls("oracle.closure_size"), "count"),
        "oracle.closure_size.s": (secs("oracle.closure_size"), "s"),
        "oracle.CayleyTable.build.calls": (built, "count"),
        "oracle.CayleyTable.build.s": (secs("oracle.CayleyTable.build"), "s"),
        "oracle.CayleyTable.build.elements": (c["oracle.CayleyTable.build.elements"], "count"),
        "oracle.CayleyTable.build.bytes": (c["oracle.CayleyTable.build.bytes"], "B"),
        "oracle.conjugacy_class_reps.s": (secs("oracle.conjugacy_class_reps"), "s"),
        "oracle.conjugacy_class_reps.reps": (c["oracle.conjugacy_class_reps.reps"], "count"),
        "oracle.find_generating_tuple.calls": (calls("oracle.find_generating_tuple"), "count"),
        "oracle.find_generating_tuple.s": (secs("oracle.find_generating_tuple"), "s"),
        "oracle.witness_chains": (chains, "count"),
        "oracle.d_lower_bound.s": (secs("oracle.d_lower_bound"), "s"),
        "oracle.min_generators.s": (secs("oracle.min_generators"), "s"),
        "permcore.bsgs_build.calls": (calls("permcore.bsgs_build"), "count"),
        "permcore.bsgs_build.deg_le255_s": (c["permcore.bsgs_build.deg_le255_s"], "s"),
        "permcore.bsgs_build.deg_gt255_s": (c["permcore.bsgs_build.deg_gt255_s"], "s"),
        "permcore.bsgs.strong_gens": (c["permcore.bsgs.strong_gens"], "count"),
        "permcore.bsgs.base_len": (c["permcore.bsgs.base_len"], "count"),
        "permcore.Bsgs.extend.calls": (calls("permcore.Bsgs.extend"), "count"),
        "permcore.Bsgs.contains.calls": (calls("permcore.Bsgs.contains"), "count"),
        "permcore.derived_subgroup.s": (secs("permcore.derived_subgroup"), "s"),
        "permcore.abelian_p_ranks.s": (secs("permcore.abelian_p_ranks"), "s"),
        "wreath.tower_group.s": (secs("wreath.tower_group"), "s"),
        "wreath.tower_generators.s": (secs("wreath.tower_generators"), "s"),
        "wreath.parse_tower.s": (secs("wreath.parse_tower"), "s"),
        "modfp.check_Ip_structure.s": (secs("modfp.check_Ip_structure"), "s"),
        "modfp.checked_vectors": (c["modfp.checked_vectors"], "count"),
        "modfp.spin.calls": (calls("modfp.spin"), "count"),
        "modfp.spin.s": (secs("modfp.spin"), "s"),
        "modfp.RowSpace.insert.calls": (calls("modfp.RowSpace.insert"), "count"),
        "modfp.cocycle_dims.s": (secs("modfp.cocycle_dims"), "s"),
        "modfp.cocycle.elements": (c["modfp.cocycle.elements"], "count"),
        "modfp.endomorphism_dim.s": (secs("modfp.endomorphism_dim"), "s"),
        "modfp.fixed_points.s": (secs("modfp.fixed_points"), "s"),
        "formula.d_tower.s": (secs("formula.d_tower"), "s"),
        "formula.d_corollary.s": (secs("formula.d_corollary"), "s"),
        "formula.counting_profile.s": (secs("formula.counting_profile"), "s"),
        "formula.abelianization.s": (secs("formula.abelianization"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (names.get("cli.main", {}).get("self_s", 0.0), "s"),
    }
    for kind in ("trivial", "abelianization", "noncyclic", "exhaustive"):
        out[f"oracle.certificates.{kind}"] = (c[f"oracle.certificates.{kind}"], "count")
    out["oracle.table_use_ratio"] = (
        len(tr.scanned_tables) / built if built else 0.0, "ratio")
    out["oracle.witness_hit_ratio"] = (
        c["oracle.witness_hits"] / chains if chains else 0.0, "ratio")
    return out
