"""Which entry points load numpy.  Only `CayleyTable.build` (the exhaustive
scan's table) uses it, so importing the package and running `formula`,
`example`, `module`, `cohom` or a `verify` that settles without a scan
start without it, and run where numpy cannot be imported; each case runs
in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# runs the CLI in-process, then reports on stderr whether numpy was loaded
PROBE = """\
import sys
import wreathgen
if sys.argv[1:]:
    from wreathgen import cli
    code = cli.main(sys.argv[1:])
    assert code == 0, code
sys.stderr.write(str("numpy" in sys.modules))
"""


# a None entry in sys.modules makes every import of numpy raise ImportError
BLOCKED = """\
import json, sys
sys.modules["numpy"] = None
from wreathgen import *
from wreathgen import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
try:
    cli.main(["verify", "--tower", "C2;S4", "--attempts", "0"])
except ImportError:
    pass
else:
    raise AssertionError("verify ran its pair scan with numpy blocked")
"""

NUMPY_FREE = [
    ["formula", "--tower", "A5;C3;C2;C2"],
    ["verify", "--tower", "C2;S3", "--seed", "1"],
    # past the table budget: bounds_only from the witness search alone
    ["verify", "--tower", "C5;C2;C2", "--attempts", "1", "--seed", "1"],
    ["example", "--n", "5", "--verify"],
    ["module", "--n", "5", "--p", "3"],
    ["cohom", "--group", "A5", "--p", "2"],
]


def run_probe(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def numpy_loaded(*argv) -> bool:
    return {"True": True, "False": False}[run_probe(PROBE, *argv).stderr.strip()]


@pytest.mark.parametrize("argv", [[], *NUMPY_FREE], ids=lambda argv: " ".join(argv) or "import")
def test_numpy_is_not_loaded(argv):
    assert not numpy_loaded(*argv)


def test_the_numpy_free_paths_run_with_numpy_blocked():
    run_probe(BLOCKED, json.dumps(NUMPY_FREE))


@pytest.mark.parametrize("argv", [
    # --attempts 0 leaves the pair scan over the Cayley table to find d
    ["verify", "--tower", "C2;S4", "--attempts", "0"],
], ids=" ".join)
def test_numpy_is_loaded_where_arrays_are_built(argv):
    assert numpy_loaded(*argv)

