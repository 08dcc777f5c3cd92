"""The package's public names: `__all__` and what the package binds agree,
and no module imports a name it does not use."""

import ast
import types
from pathlib import Path

import pytest

import wreathgen

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wreathgen").glob("*.py"))


def test_every_export_resolves_and_star_import_binds_exactly_them():
    assert len(set(wreathgen.__all__)) == len(wreathgen.__all__)
    for name in wreathgen.__all__:
        assert hasattr(wreathgen, name), name
    namespace = {}
    exec("from wreathgen import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(wreathgen.__all__)
    # every public name the package imports is exported
    public = {name for name, value in vars(wreathgen).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(wreathgen.__all__)


def unused_imports(source: str) -> set[str]:
    """Names a module imports but neither reads nor lists in `__all__`."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom re import sub, match\nmatch\n") == {"os", "sub"}
    assert unused_imports("from x import a, b\n__all__ = ['a']\nb\n") == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == set()
