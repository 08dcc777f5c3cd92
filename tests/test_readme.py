"""The README's `## Library` block runs as written, and each line whose
trailing comment is a Python literal evaluates to it."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _literal(comment: str):
    try:
        return True, ast.literal_eval(comment.strip())
    except (ValueError, SyntaxError):
        return False, None


def test_the_library_block_runs_and_its_values_hold():
    scope: dict = {}
    checked = []
    for line in _library_block().splitlines():
        code, _, comment = line.partition("#")
        is_literal, value = _literal(comment)
        if is_literal:
            assert eval(code, scope) == value, line
            checked.append(comment.strip())
        else:
            exec(code, scope)
    assert {"2", "512988145055170560"} <= set(checked)
