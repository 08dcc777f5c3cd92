"""The package's public names: `__all__` and what the package binds agree."""

import types

import wreathgen


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
