"""CLI golden outputs: stdout and exit code, byte for byte.

The documents in golden_cli.json were recorded before the element walk
and the closed-form rules were consolidated; any refactor must leave them
unchanged.  The `verify --attempts 0` cases skip the witness search, so
the pair scan over the Cayley table finds the witness and the printed
cycles pin the walk's element order.
"""

import json
from pathlib import Path

import pytest

from wreathgen import cli

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_golden(capsys, case):
    code = cli.main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
