"""CLI golden outputs: stdout and exit code, byte for byte.

The documents in golden_cli.json were recorded before the element walk,
the closed-form rules and the permutation representation were
consolidated; any refactor must leave them unchanged.  The `verify
--attempts 0` cases skip the witness search, so the pair scan over the
Cayley table finds the witness and the printed cycles pin the walk's
element order.  C17;C3;C5 (255 leaves) and C16;C16 (256 leaves) pin the
witness search on either side of the switch between the two stored
forms of a permutation.  `verify` on C2^9 (512 leaves), recorded while
`tower_group` still built a deterministic chain, pins the output on a
wide tower whose chain is built to its known order.  `module` at p = 3 for n = 6, 7 and 8 pins both
branches of the I_p structure check (p | n and p prime to n), recorded
before that check's spins learned to stop early.  `example --n 21
--verify`, recorded while the pair's chain was still deterministic, pins
its output now that the chain is built to |W|.  `verify` on A18, whose
chain once stalled below |A18| when each residue was kept at its own
level only, pins d = 2 with the oracle's exact bracket [2, 2].  `cohom` on C39 and
S32 at p = 2, the largest groups of their kinds under the equation
budget, were recorded while End was still solved from the k^2-unknown
commutation equations (C39 took seconds), and pin its spinning-basis
form at the budget's edge.
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
