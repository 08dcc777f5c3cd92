"""The package's public names: `__all__` and what the package binds agree,
no module imports a name it does not use, and every definition is read."""

import ast
import types
from collections import Counter
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


def foreign_constants(source: str) -> set[str]:
    """ALL-CAPS names a module imports or reads off a name it imports, as
    "name.ATTR": a budget or limit read there is owned by another module."""
    tree = ast.parse(source)
    imported, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        if isinstance(node, ast.ImportFrom):
            found.update(f"{node.module}.{a.name}" for a in node.names if a.name.isupper())
    return found | {f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in imported and n.attr.isupper()}


def test_foreign_constants_are_found():
    src = ("from . import modfp\nimport os.path as osp\nfrom .oracle import LIMIT, run\n"
           "OWN = 1\ndef f(obj):\n    from . import permcore\n"
           "    return modfp.BUDGET, osp.SEP_2, permcore.run, obj.MAX, OWN, LIMIT\n")
    assert foreign_constants(src) == {"modfp.BUDGET", "osp.SEP_2", "oracle.LIMIT"}


def test_cli_reads_no_constant_of_another_module():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert foreign_constants(cli.read_text()) == set()


def unowned_budget_raises(source: str) -> set[str]:
    """Each `raise BudgetExceeded(...)` of a module, as source text, that
    reads no ALL-CAPS constant assigned at the module's top level: every
    budget that stops a run is owned by the module that enforces it, not
    passed in by a caller."""
    tree = ast.parse(source)
    owned = {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
             for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
             if isinstance(t, ast.Name) and t.id.isupper()}
    return {ast.unparse(n) for n in ast.walk(tree)
            if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
            and ast.unparse(n.exc.func).split(".")[-1] == "BudgetExceeded"
            and not owned & {x.id for x in ast.walk(n.exc) if isinstance(x, ast.Name)}}


def test_unowned_budget_raises_are_found():
    src = ("from .permcore import CAP\nLIMIT = 4\n"
           "def f(n, limit):\n"
           "    if n > LIMIT:\n        raise BudgetExceeded(f'{n} over {LIMIT}')\n"
           "    if n > limit:\n        raise BudgetExceeded(f'{n} over {limit}')\n"
           "    MAX = 3\n"
           "    if n > MAX:\n        raise BudgetExceeded(MAX)\n"
           "    raise permcore.BudgetExceeded(CAP)\n")
    assert unowned_budget_raises(src) == {"raise BudgetExceeded(f'{n} over {limit}')",
                                          "raise BudgetExceeded(MAX)",
                                          "raise permcore.BudgetExceeded(CAP)"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_budget_refusal_reads_a_budget_of_its_module(path):
    assert unowned_budget_raises(path.read_text()) == set()


def caught_exceptions(source: str) -> list[tuple[str | None, tuple[str, ...]]]:
    """Every `try` of a module that has handlers, in source order, as (the
    function it sits in, or None at module level; the exceptions its
    handlers name, a bare `except` as "BaseException")."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Try) and child.handlers:
                names = []
                for h in child.handlers:
                    kinds = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
                    names += ["BaseException" if k is None else ast.unparse(k) for k in kinds]
                found.append((func, tuple(names)))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else func)

    visit(ast.parse(source), None)
    return found


def test_caught_exceptions_are_found():
    src = ("try:\n    import x\nexcept ImportError:\n    pass\n"
           "def main():\n    try:\n        f()\n    except (A, b.B):\n        pass\n"
           "    except C as e:\n        pass\n"
           "    try:\n        f()\n    finally:\n        g()\n"
           "def helper():\n    def inner():\n        try:\n            pass\n"
           "        except:\n            pass\n")
    assert caught_exceptions(src) == [(None, ("ImportError",)), ("main", ("A", "b.B", "C")),
                                      ("inner", ("BaseException",))]


def test_cli_catches_only_in_main_and_only_the_two_refusals():
    # BadInput exits 2 and BudgetExceeded 3; any other exception is a bug
    # and must not be reported as either
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert caught_exceptions(cli.read_text()) == [("main", ("BadInput", "BudgetExceeded"))]


def module_containers(source: str) -> set[str]:
    """Names a module binds at its top level to a list, dict or set (a
    display, a comprehension or a call of list, dict or set): state that
    outlives every call into the module."""
    found = set()
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        value = node.value
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                              ast.SetComp)) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "dict", "set")):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(ast.unparse(t) for t in targets)
    return found


def test_module_containers_are_found():
    src = ("_SEEN = set()\nA: dict = {}\nB = C = [x for x in ()]\nD = (1, 2)\n"
           "E = frozenset()\ndef f():\n    local = set()\n")
    assert module_containers(src) == {"_SEEN", "A", "B", "C"}


def test_permcore_binds_no_module_level_container():
    # a memo of a Schreier-Sims build, such as the Schreier generators it
    # has sifted, lives and dies with that build's extend() call
    permcore = next(p for p in SOURCES if p.name == "permcore.py")
    assert module_containers(permcore.read_text()) == set()


def chain_writes(source: str) -> set[str]:
    """Each assignment of a module to an attribute `_bsgs` outside the
    class PermGroup, as source text: a group's cached chain is built by the
    group, on its own generators."""
    found = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and not inside:
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "_bsgs"
                       for target in targets for t in ast.walk(target)):
                    found.add(ast.unparse(child))
            visit(child, inside or isinstance(child, ast.ClassDef) and child.name == "PermGroup")

    visit(ast.parse(source), False)
    return found


def test_chain_writes_are_found():
    src = ("class PermGroup:\n    def bsgs(self):\n        self._bsgs = build(self)\n"
           "class Other:\n    def f(self, g):\n        g._bsgs = None\n"
           "def closure(g, n):\n    n._bsgs: object = g\n    a, n.b._bsgs = 1, 2\n"
           "    n._bsgs_size = 3\n")
    assert chain_writes(src) == {"g._bsgs = None", "n._bsgs: object = g",
                                 "a, n.b._bsgs = (1, 2)"}


def test_only_a_permgroup_writes_its_chain():
    assert set().union(*(chain_writes(p.read_text()) for p in SOURCES)) == set()


def raw_readers(source: str) -> set[str]:
    """Each read of an attribute `raw` in a module, as source text: how a
    permutation is stored is permcore's decision, so no other module reads
    a stored form."""
    return {ast.unparse(n) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and n.attr == "raw" and isinstance(n.ctx, ast.Load)}


def test_raw_readers_are_found():
    src = "def f(p, q):\n    q.raw = p.raw[0]\n    return q.g.raw, p.raw_size, raw\n"
    assert raw_readers(src) == {"p.raw", "q.g.raw"}
    oracle = next(p for p in SOURCES if p.name == "oracle.py").read_text()
    assert raw_readers(oracle + "\ndef planted(p):\n    return p.raw[0]\n") == {"p.raw"}


def test_only_permcore_reads_a_stored_form():
    assert set().union(*(raw_readers(p.read_text()) for p in SOURCES
                         if p.name != "permcore.py")) == set()


def mentions(source: str, names: set[str]) -> set[str]:
    """Each import, variable, attribute or string of a module that names
    one of `names`, as source text."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if (isinstance(n, (ast.Import, ast.ImportFrom))
                and names & {a.name.split(".")[-1] for a in n.names}
                or isinstance(n, ast.Attribute) and n.attr in names
                or isinstance(n, ast.Name) and n.id in names
                or isinstance(n, ast.Constant) and n.value in names):
            found.add(ast.unparse(n))
    return found


def closed_form_reads(source: str) -> set[str]:
    """What a module takes from the closed form, as source text: each
    import that names the module `formula` and each read of
    `abelian_primes`, the per-level facts the closed form counts with."""
    found = mentions(source, {"abelian_primes"})
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in n.names] + [getattr(n, "module", None) or ""]
            if any("formula" in name.split(".") for name in names):
                found.add(ast.unparse(n))
    return found


def test_closed_form_reads_are_found():
    oracle = next(p for p in SOURCES if p.name == "oracle.py").read_text()
    planted = ("from .formula import d_tower\nfrom . import formula as f\n"
               "import wreathgen.formula\nfrom .wreath import formula_like\n"
               "def g(t):\n    return [s.abelian_primes for s in t.levels], "
               "getattr(t, 'abelian_primes')\n")
    assert closed_form_reads(oracle + planted) == {
        "from .formula import d_tower", "from . import formula as f", "import wreathgen.formula",
        "s.abelian_primes", "'abelian_primes'"}


def test_the_oracle_reads_nothing_of_the_closed_form():
    # its lower bounds are independent of the formula they certify
    oracle = next(p for p in SOURCES if p.name == "oracle.py")
    assert closed_form_reads(oracle.read_text()) == set()


# the abelian ranks read off a stabilizer chain of G'G^r, which the tests
# keep as the reference for the ranks the oracle reads off the tree
CHAIN_ROUTE = {"abelian_p_ranks", "derived_subgroup"}


def test_chain_route_names_are_found():
    oracle = next(p for p in SOURCES if p.name == "oracle.py").read_text()
    planted = ("from .permcore import abelian_p_ranks as ranks\n"
               "from . import permcore as pc\n"
               "def g(h):\n    return pc.derived_subgroup(h), getattr(pc, 'abelian_p_ranks'), "
               "derived_subgroup, ranks\n")
    assert mentions(oracle + planted, CHAIN_ROUTE) == {
        "from .permcore import abelian_p_ranks as ranks", "pc.derived_subgroup",
        "'abelian_p_ranks'", "derived_subgroup"}


def test_the_oracle_takes_no_chain_route_to_its_ranks():
    # the oracle's input is a tower, and its one lower-bound route reads
    # the tree's local actions
    oracle = next(p for p in SOURCES if p.name == "oracle.py")
    assert mentions(oracle.read_text(), CHAIN_ROUTE) == set()


PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# read only by tests, which build most of their groups from cycle text;
# moving it into the tests would repeat it, not remove it
TEST_CONSTRUCTORS = {"from_cycles"}


def _reads(node) -> tuple[Counter, Counter]:
    """Names an AST reads, as (variables, attributes and strings): a string
    that is an identifier counts as a read, since the benchmark's tracer
    looks functions up by name."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            attrs[n.value] += 1
    return names, attrs


def unread_definitions(sources: list[str], readers: list[str] = ()) -> set[str]:
    """Functions, classes and methods defined in `sources` that no code in
    `sources` or `readers` reads outside their own definition, and that no
    `__all__` lists.  A method or property is read only through an
    attribute or a string, so a local variable of the same name does not
    count.  Dunder methods are called by Python itself."""
    trees = [ast.parse(text) for text in sources]
    names, attrs = Counter(), Counter()
    exported: set[str] = set()
    for tree in trees + [ast.parse(text) for text in readers]:
        tree_names, tree_attrs = _reads(tree)
        names.update(tree_names)
        attrs.update(tree_attrs)
        for n in ast.walk(tree):
            if isinstance(n, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets):
                exported.update(ast.literal_eval(n.value))
    members = {id(m) for tree in trees for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for m in c.body}
    unread = set()
    for tree in trees:
        for n in ast.walk(tree):
            if not isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = n.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            own_names, own_attrs = _reads(n)
            read = attrs[name] - own_attrs[name]
            if id(n) not in members:
                read += names[name] - own_names[name]
            if not read:
                unread.add(name)
    return unread


def test_unread_definitions_are_found():
    src = ("def used(): shadowed = 0; return shadowed\n"
           "def recursive(n): return recursive(n - 1)\n"
           "class K:\n"
           "    def method(self): return self.helper()\n"
           "    def helper(self): pass\n"
           "    def shadowed(self): pass\n"
           "    def __len__(self): return 0\n"
           "def exported(): pass\n"
           "def by_name(): pass\n"
           "__all__ = ['exported']\n"
           "used()\n")
    assert unread_definitions([src], ["getattr(m, 'by_name')\nm.K\n"]) == {
        "recursive", "method", "shadowed"}


def test_every_definition_is_read_or_exported():
    sources = [p.read_text() for p in SOURCES]
    readers = [p.read_text() for p in PERFBENCH]
    assert unread_definitions(sources, readers) == TEST_CONSTRUCTORS
