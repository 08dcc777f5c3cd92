"""Self-tests of the benchmark: seed-state counts through the wrappers, and
output checks that catch a tampered result.

    python3 -m pytest perfbench -q
"""

import copy

import workloads as wl  # first: puts src/ on sys.path
import run
import tracer as tracing
from wreathgen import cli, modfp, oracle, permcore, wreath


def traced_cli(argv):
    tr = tracing.Tracer()
    with tracing.patched(tr):
        idx = tr.open_item(0)
        try:
            result = wl.run_cli(argv)
        finally:
            tr.close(idx)
    return tr, result


def test_closure_calls_on_c3c2c2():
    argv = ["verify", "--tower", "C3;C2;C2", "--seed", "1"]
    tr, (code, doc) = traced_cli(argv)
    assert wl.check_verify(argv, code, doc) == []
    assert tr.per_name()["oracle.closure_size"]["calls"] == 84480
    metrics = tracing.layer_metrics(tr)
    assert metrics["oracle.certificates.exhaustive"][0] == 1
    assert metrics["oracle.table_use_ratio"][0] == 1.0


def test_spin_calls_on_module_5_5():
    argv = ["module", "--n", "5", "--p", "5"]
    tr, (code, doc) = traced_cli(argv)
    assert wl.check_module(argv, code, doc) == []
    assert tr.per_name()["modfp.spin"]["calls"] == 2500
    assert tracing.layer_metrics(tr)["modfp.checked_vectors"][0] == 2500


def test_witness_chains_on_a5c3c3c2c2_seed_1():
    argv = ["verify", "--tower", "A5;C3;C3;C2;C2", "--seed", "1"]
    tr, (code, doc) = traced_cli(argv)
    assert wl.check_verify(argv, code, doc) == []
    metrics = tracing.layer_metrics(tr)
    assert metrics["oracle.witness_chains"][0] == 4
    assert metrics["oracle.witness_hit_ratio"][0] == 0.25


def test_kernel_time_lands_on_its_side_of_the_255_leaf_switch():
    for tower, wide in (("C17;C3;C5", False), ("C16;C16", True)):
        argv = ["verify", "--tower", tower, "--seed", "1"]
        tr, (code, doc) = traced_cli(argv)
        assert wl.check_verify(argv, code, doc) == []
        metrics = tracing.layer_metrics(tr)
        assert (metrics["permcore.bsgs_build.deg_gt255_s"][0] > 0) == wide


def test_every_binding_is_wrapped_and_restored():
    original = permcore.bsgs_build
    sites = (permcore, oracle, wreath, cli)
    assert all(mod.bsgs_build is original for mod in sites)
    spin, insert = modfp.spin, modfp.RowSpace.__dict__["insert"]
    with tracing.patched(tracing.Tracer()):
        assert all(mod.bsgs_build is not original for mod in sites)
        assert modfp.spin is not spin
        assert modfp.RowSpace.__dict__["insert"] is not insert
    assert all(mod.bsgs_build is original for mod in sites)
    assert modfp.spin is spin and modfp.RowSpace.__dict__["insert"] is insert


def test_traced_output_equals_untraced_and_self_time_adds_up():
    argv = ["verify", "--tower", "S3;C2;C2", "--seed", "7"]
    plain = wl.run_cli(argv)
    tr, traced = traced_cli(argv)
    assert traced == plain
    names = tr.per_name()
    root = names[tracing.ITEM_SPAN]
    assert abs(sum(v["self_s"] for v in names.values()) - root["s"]) < 1e-6


def test_widened_or_wrong_bracket_is_flagged():
    argv = ["verify", "--tower", "C5;C2;C2", "--seed", "1"]
    code, doc = wl.run_cli(argv)
    assert wl.check_verify(argv, code, doc) == []

    def tampered(**changes):
        bad = copy.deepcopy(doc)
        bad["oracle"].update(changes)
        return wl.check_verify(argv, code, bad)

    assert tampered(upper=4)  # wider than the recorded [2, 3]
    assert tampered(lower=1)
    assert tampered(lower=2, upper=2, status="exact")  # misses d = 3
    assert tampered(status="exact")  # exact without the bounds meeting
    assert tampered(lower=3, upper=3, status="exact") == []  # tightening passes
    assert wl.check_verify(argv, 4, doc)


def test_tampered_module_and_cohom_are_flagged():
    argv = ["module", "--n", "5", "--p", "3"]
    code, doc = wl.run_cli(argv)
    assert wl.check_module(argv, code, doc) == []
    assert wl.check_module(argv, code, {**doc, "irreducible": False})
    assert wl.check_module(argv, code, {**doc, "checked_vectors": 79})
    assert wl.check_module(argv, 3, {**doc, "status": "unverified"})

    argv = ["cohom", "--group", "A5", "--p", "3"]
    code, doc = wl.run_cli(argv)
    assert wl.check_cohom(argv, code, doc) == []
    assert wl.check_cohom(argv, code, {**doc, "dim_H1": 0})


def test_tampered_formula_sweep_is_flagged():
    sweep = wl.FormulaSweep(1)
    outputs = [wl.formula_item(t) for t in sweep.items]
    n = len(outputs)
    assert wl.check_formula_pass(n, wl.pass_digest(outputs)) == []
    # the digest does not depend on the order the towers ran in
    assert wl.check_formula_pass(n, wl.pass_digest(outputs[::-1])) == []
    text, d, case, counting = outputs[0]
    assert wl.check_formula_pass(n, wl.pass_digest([(text, d + 1, case, counting)]
                                                   + outputs[1:]))
    assert wl.check_formula_pass(n - 1, wl.pass_digest(outputs[1:]))


def test_run_fails_every_item_of_a_tampered_formula_pass():
    class Tampered(wl.FormulaSweep):
        def run_item(self, item):
            text, d, case, counting = super().run_item(item)
            return text, d + (text == self.items[-1]), case, counting

    w = run.Run(Tampered(1), passes=1)
    assert w.attempted == w.failed == 111100


def test_run_counts_a_tampered_item_as_failed():
    class Tampered(wl.VerifyScan):
        def make_items(self):
            return [["verify", "--tower", t, "--seed", "1"] for t in ("C2;S3", "S3;C2")]

        def run_item(self, item):
            code, doc = super().run_item(item)
            if "S3;C2" in item:
                doc["oracle"]["upper"] += 1
            return code, doc

    w = run.Run(Tampered(1), passes=2)
    assert (w.attempted, w.failed, w.exact) == (4, 2, 1)
    assert len(w.pass_times) == 2 and w.digests[0] == w.digests[1]
