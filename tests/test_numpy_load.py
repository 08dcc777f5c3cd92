"""Which entry points load numpy.  Only `modfp` (F_p linear algebra) and
`CayleyTable.build` (the exhaustive scan's table) use it, so importing the
package and running `formula`, `example` or a `verify` that settles
without a scan start without it; each case runs in a fresh interpreter."""

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


def numpy_loaded(*argv) -> bool:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    return {"True": True, "False": False}[proc.stderr.strip()]


@pytest.mark.parametrize("argv", [
    [],
    ["formula", "--tower", "A5;C3;C2;C2"],
    ["verify", "--tower", "C2;S3", "--seed", "1"],
    # past the table budget: bounds_only from the witness search alone
    ["verify", "--tower", "C5;C2;C2", "--attempts", "1", "--seed", "1"],
    ["example", "--n", "5", "--verify"],
], ids=lambda argv: " ".join(argv) or "import")
def test_numpy_is_not_loaded(argv):
    assert not numpy_loaded(*argv)


@pytest.mark.parametrize("argv", [
    ["module", "--n", "5", "--p", "3"],
    ["cohom", "--group", "A5", "--p", "2"],
    # --attempts 0 leaves the pair scan over the Cayley table to find d
    ["verify", "--tower", "C2;S4", "--attempts", "0"],
], ids=" ".join)
def test_numpy_is_loaded_where_arrays_are_built(argv):
    assert numpy_loaded(*argv)


def test_the_modfp_exports_are_the_modules_own():
    import wreathgen
    from wreathgen import modfp

    assert wreathgen.FpModule is modfp.FpModule
    for name in wreathgen._MODFP_EXPORTS:
        assert getattr(wreathgen, name) is getattr(modfp, name)
    with pytest.raises(AttributeError):
        wreathgen.no_such_name  # noqa: B018
