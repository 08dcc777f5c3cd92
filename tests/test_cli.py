"""CLI surface: JSON documents, exit codes, determinism."""

import json

import pytest

from wreathgen import cli, modfp
from wreathgen.formula import AbelianProfile, FormulaResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_formula_document(capsys):
    code, doc = run(capsys, "formula", "--tower", "A5;C3;C2;C2")
    assert code == 0
    assert doc["d"] == 2
    assert doc["case"] == "An"
    assert doc["order"] == "512988145055170560"
    assert doc["leaf_count"] == 60
    assert doc["abelianization"] == {"2": 2, "3": 1}
    assert doc["counting"]["d"] == 2
    assert doc["counting"]["c"] == {"2": 2, "3": 1}


def test_formula_single_level_has_no_counting(capsys):
    code, doc = run(capsys, "formula", "--tower", "C5")
    assert code == 0
    assert doc["d"] == 1 and doc["case"] == "SingleLevel"
    assert doc["counting"] is None


def test_formula_cyclic_top_has_no_counting(capsys):
    code, doc = run(capsys, "formula", "--tower", "C3;C2;C2")
    assert code == 0
    assert doc["d"] == 3 and doc["case"] == "Cyclic"
    assert doc["counting"] is None


def test_formula_output_is_deterministic(capsys):
    a = run(capsys, "formula", "--tower", "S4;C6;A4")
    b = run(capsys, "formula", "--tower", "S4;C6;A4")
    assert a == b


def test_formula_rejects_bad_tower(capsys):
    code, doc = run(capsys, "formula", "--tower", "A5;;C2")
    assert code == 2 and "error" in doc
    code, doc = run(capsys, "formula", "--tower", "C1")
    assert code == 2 and "error" in doc


def test_verify_agreement(capsys):
    code, doc = run(capsys, "verify", "--tower", "S3;C2")
    assert code == 0
    assert doc["agree"] is True
    assert doc["oracle"]["status"] == "exact"
    assert doc["oracle"]["lower"] == doc["d"] == 2


def test_verify_huge_tower_skips_oracle(capsys):
    tower = ";".join(["C2"] * 13)  # 8192 leaves
    code, doc = run(capsys, "verify", "--tower", tower)
    assert code == 0
    assert doc["oracle"] is None and doc["agree"] is None
    assert "exceed" in doc["warning"]
    assert doc["d"] == 13


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "d_tower", lambda t: FormulaResult(5, "An", AbelianProfile({})))
    code, doc = run(capsys, "verify", "--tower", "S3;C2")
    assert code == 4
    assert doc["agree"] is False


@pytest.mark.parametrize("flags", [["--attempts", "-1"], ["--order-limit", "0"]])
def test_verify_rejects_bad_budget_flags(capsys, flags):
    code, doc = run(capsys, "verify", "--tower", "S3;C2", *flags)
    assert code == 2 and "error" in doc


def test_verify_seed_passthrough(capsys):
    code, doc = run(capsys, "verify", "--tower", "C2;S3", "--seed", "9")
    assert code == 0 and doc["oracle"]["seed"] == 9


def test_module_verified(capsys):
    code, doc = run(capsys, "module", "--n", "5", "--p", "5")
    assert code == 0
    assert doc["status"] == "verified"
    assert doc["checked_vectors"] == 2500
    assert doc["unique_maximal"] is True


def test_module_over_budget_exits_3(capsys):
    code, doc = run(capsys, "module", "--n", "25", "--p", "2")
    assert code == 3
    assert doc["status"] == "unverified"


def test_module_over_budget_builds_nothing(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("Alt(n) built for an over-budget check")

    monkeypatch.setattr(modfp, "alt_group", refuse)
    code, doc = run(capsys, "module", "--n", "400", "--p", "2")
    assert code == 3
    assert doc["status"] == "unverified" and doc["dim_Ip"] == 399


def test_module_rejects_nonprime(capsys):
    code, doc = run(capsys, "module", "--n", "5", "--p", "6")
    assert code == 2 and "error" in doc


def test_cohom_a5(capsys):
    code, doc = run(capsys, "cohom", "--group", "A5", "--p", "3")
    assert code == 0
    assert doc["dim_H1"] == 1
    assert doc["s"] == 1 and doc["h"] == 2 and doc["r"] == 4


def test_cohom_nonscalar_end_has_no_h(capsys):
    code, doc = run(capsys, "cohom", "--group", "C4", "--p", "2")
    assert code == 0
    assert doc["h"] is None
    assert "endomorphism" in doc["warning"]


def test_cohom_rejects_bad_token(capsys):
    for group in ("B5", "C1"):
        code, doc = run(capsys, "cohom", "--group", group, "--p", "2")
        assert code == 2 and "error" in doc


def test_example_document(capsys):
    code, doc = run(capsys, "example", "--n", "5")
    assert code == 0
    assert doc["tower"] == "A5;C3;C2;C2"
    assert (doc["order_x"], doc["order_y"]) == (12, 6)
    assert doc["generates"] is None


def test_example_verify_certifies_generation(capsys):
    code, doc = run(capsys, "example", "--n", "5", "--verify")
    assert code == 0
    assert doc["generates"] is True
    assert doc["order"] == "512988145055170560"


def test_example_rejects_even_n(capsys):
    code, doc = run(capsys, "example", "--n", "6")
    assert code == 2 and "error" in doc


def test_out_flag_writes_identical_json(capsys, tmp_path):
    path = tmp_path / "doc.json"
    code = cli.main(["formula", "--tower", "S4;C2", "--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
