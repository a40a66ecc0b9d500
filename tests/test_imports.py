"""Every import in ``src/voxelmatch`` is used, every ``__all__`` entry is bound and
read, every private top-level name is read, every defaulted parameter of a private
function is set by some call, and every top-level helper of the tests is read: an
``ast`` scan, so no linter is needed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "voxelmatch"
TESTS = ROOT / "tests"
# the benchmark harness's own modules; its tests, like these, are no readers
BENCH = [ROOT / "benchmarks" / "run.py", *sorted((ROOT / "benchmarks" / "voxbench").glob("*.py"))]

# public names kept for a later item with no reader yet, each with the item it waits for
UNREAD_EXPORTS_ALLOWED = {
    "phantom.py: Corruption": "ROADMAP item 8: the phantom suite's corrupted rows",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never reads.

    A name is read when the module loads it anywhere, lists it in
    ``__all__``, or imports it on a line marked ``# noqa: F401``.
    ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def unbound_exports(source: str) -> list[str]:
    """``__all__`` entries that no top-level def, class, assignment or import binds.

    ``from module import *`` raises ``AttributeError`` on each of them.
    """
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return [name for name in exported if name not in bound]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants that no module reads.

    ``sources`` maps module names to their source.  A top-level def, class
    or assignment whose name starts with one underscore is read when any
    module loads the name, reads an attribute of that name or imports it.
    """
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read |= {alias.name for alias in n.names}
    return [
        f"{mod}: {name} (line {node.lineno})"
        for mod, tree in trees.items() for node in tree.body for name in top_level_names(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def top_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unread_test_helpers(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants of the test modules that no
    test module reads.

    ``sources`` maps file names (``test_a.py``) to their source.  pytest itself
    collects ``test_*`` functions and ``Test*`` classes and calls ``pytest_*``
    hooks and ``pytestmark``, so they are no helpers.  A helper is read when,
    outside its own top-level definition, its module loads it, another module
    imports it from that module (``from test_a import name`` or ``test_a.name``),
    or a function names it as a parameter: a fixture of its module, or of
    ``conftest.py`` in any module.
    """
    trees = {mod: ast.parse(source) for mod, source in sources.items()}

    def reads(mod: str, node: ast.stmt) -> set[tuple[str, str]]:
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add((mod, n.id))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                out.add((f"{n.value.id}.py", n.attr))
            elif isinstance(n, ast.ImportFrom) and n.module:
                out |= {(f"{n.module}.py", alias.name) for alias in n.names}
            elif isinstance(n, ast.arg):
                out |= {(mod, n.arg), ("conftest.py", n.arg)}
        return out

    read = {(mod, node): reads(mod, node) for mod, tree in trees.items() for node in tree.body}
    return [
        f"{mod}: {name} (line {node.lineno})"
        for mod, tree in trees.items() for node in tree.body for name in top_level_names(node)
        if not name.startswith(("test_", "Test", "pytest"))
        and not any((mod, name) in r for key, r in read.items() if key != (mod, node))
    ]


def unread_exports(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``__all__`` entries of ``modules`` that no module of either map reads.

    Both map module names to their source.  An entry is read when some
    module loads the name or an attribute of that name outside the entry's
    own top-level definition; its ``__all__`` entry and an import are no
    reads.
    """
    trees = {mod: ast.parse(source) for mod, source in {**readers, **modules}.items()}
    unread = []
    for mod in modules:
        for node in trees[mod].body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                unread += [f"{mod}: {e.value}" for e in node.value.elts if isinstance(e, ast.Constant)]

    def read_outside_own_definition(entry: str) -> bool:
        home, name = entry.split(": ")
        for mod, tree in trees.items():
            for node in tree.body:
                if mod == home and getattr(node, "name", None) == name:
                    continue
                if any(
                    (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name)
                    or (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr == name)
                    for n in ast.walk(node)
                ):
                    return True
        return False

    return sorted(entry for entry in unread if not read_outside_own_definition(entry))


def unset_private_defaults(modules: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Defaulted parameters of the private functions of ``modules`` that no call sets.

    Both map module names to their source.  A parameter with a default, of a
    function or method named with one leading underscore, is set when a call
    of that name in either map passes it by keyword or an argument at its
    position; ``*args`` and ``**kwargs`` set every parameter they could.  A
    method is taken as called on an instance: its first argument is at
    position 1.  A function whose name is read other than as the callee may
    be called with anything, so it has no unset parameter.  A default no
    call sets is a constant, not a knob.
    """
    trees = {mod: ast.parse(source) for mod, source in {**callers, **modules}.items()}
    calls, passed, methods = {}, set(), set()
    for tree in trees.values():
        callees = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(n.func, "id", None) or n.func.attr, []).append(n)
                callees.add(n.func)
            elif isinstance(n, ast.ClassDef):
                methods |= {f for f in n.body if isinstance(f, ast.FunctionDef)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load) and n not in callees:
                passed.add(getattr(n, "id", None) or n.attr)

    def sets(call: ast.Call, name: str, position: int | None) -> bool:
        if any(kw.arg in (None, name) for kw in call.keywords):
            return True
        return position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
        )

    unset = []
    for mod in modules:
        for fn in ast.walk(trees[mod]):
            private = isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.startswith("__")
            if not private or fn.name in passed:
                continue
            shift = 1 if fn in methods else 0
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
            defaulted += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            unset += [
                f"{mod}: {fn.name}({name}) (line {fn.lineno})"
                for name, position in defaulted
                if not any(sets(c, name, position) for c in calls.get(fn.name, []))
            ]
    return unset


class TestUnusedImports:
    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_module_reads_every_import(self, path):
        assert unused_imports(path.read_text()) == []

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_module_binds_every_export(self, path):
        assert unbound_exports(path.read_text()) == []

    def test_scan_finds_what_it_should(self):
        source = (
            "from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "from dataclasses import dataclass, field, replace as rep\n"
            "from json import dumps  # noqa: F401\n"
            "from json import loads\n"
            "LIMIT: int = 3\n"
            "__all__ = ['loads', 'f', 'LIMIT', 'gone']\n"
            "def f(x) -> dataclass:\n"
            "    gone = 1\n"
            "    return os.path.join(x, rep)\n"
        )
        assert unused_imports(source) == ["field (line 4)", "math (line 2)"]
        assert unbound_exports(source) == ["gone"]

    def test_every_private_top_level_name_is_read(self):
        assert unread_private_names({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []

    def test_every_export_is_read_outside_the_tests(self):
        modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
        readers = {str(p.relative_to(ROOT)): p.read_text() for p in BENCH}
        assert unread_exports(modules, readers) == sorted(UNREAD_EXPORTS_ALLOWED)

    def test_export_scan_finds_what_it_should(self):
        modules = {
            "a.py": (
                "__all__ = ['used', 'recursive', 'Alone', 'attr_read', 'bench_only']\n"
                "def used():\n"
                "    return 1\n"
                "def recursive(n):\n"
                "    return recursive(n - 1) if n else 0\n"
                "class Alone:\n"
                "    def copy(self) -> 'Alone':\n"
                "        return Alone()\n"
                "def attr_read():\n"
                "    return used()\n"
                "def bench_only():\n"
                "    return 2\n"
            ),
            "b.py": "from . import a\nfrom .a import recursive\nx = a.attr_read\n",
        }
        assert unread_exports(modules, {}) == ["a.py: Alone", "a.py: bench_only", "a.py: recursive"]
        readers = {"bench.py": "from a import bench_only\nbench_only()\n"}
        assert unread_exports(modules, readers) == ["a.py: Alone", "a.py: recursive"]

    def test_every_private_default_is_set_outside_the_tests(self):
        modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
        callers = {str(p.relative_to(ROOT)): p.read_text() for p in BENCH}
        assert unset_private_defaults(modules, callers) == []

    def test_unset_default_scan_finds_what_it_should(self):
        modules = {
            "a.py": (
                "def _knob(x, n=3, *, m=4):\n"
                "    return x + n + m\n"
                "def _by_position(x, n=3):\n"
                "    return x + n\n"
                "def _by_keyword(x, n=3, *, m=4):\n"
                "    return x + n + m\n"
                "def _by_unpacking(x, n=3, *, m=4):\n"
                "    return x + n + m\n"
                "def _passed_on(x, n=3):\n"
                "    return x + n\n"
                "def public(x, n=3):\n"
                "    return x + n\n"
                "class _Thing:\n"
                "    def _method(self, x, n=3):\n"
                "        return x + n\n"
                "    def _unset(self, x, n=3):\n"
                "        return x + n\n"
                "    def run(self):\n"
                "        return self._method(1, 2) + self._unset(1)\n"
                "y = _knob(1, m=2) + _by_position(1, 2) + _by_keyword(1, n=2, m=3) + public(1)\n"
                "z = _by_unpacking(*[1, 2], **{'m': 3}) + sum(map(_passed_on, [1]))\n"
            ),
        }
        assert unset_private_defaults(modules, {}) == ["a.py: _knob(n) (line 1)", "a.py: _unset(n) (line 16)"]
        # a call from the benchmark harness sets a parameter too
        callers = {"bench.py": "from a import _knob\n_knob(1, 2)\n"}
        assert unset_private_defaults(modules, callers) == ["a.py: _unset(n) (line 16)"]

    def test_every_test_helper_is_read(self):
        assert unread_test_helpers({p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}) == []

    def test_test_helper_scan_finds_what_it_should(self):
        sources = {
            "conftest.py": (
                "import pytest\n"
                "@pytest.fixture\n"
                "def shared():\n"
                "    return 1\n"
                "@pytest.fixture\n"
                "def idle():\n"
                "    return 2\n"
                "def pytest_configure(config):\n"
                "    pass\n"
            ),
            "helpers.py": (
                "def imported():\n"
                "    return 1\n"
                "def dotted():\n"
                "    return 2\n"
                "def dead():\n"
                "    return 3\n"
            ),
            "test_a.py": (
                "import pytest\n"
                "import helpers\n"
                "from helpers import imported\n"
                "pytestmark = pytest.mark.slow\n"
                "LIMIT, UNUSED = 3, 4\n"
                "def recursive(n):\n"
                "    return recursive(n - 1) if n else 0\n"
                "class Alone:\n"
                "    def copy(self):\n"
                "        return Alone()\n"
                "@pytest.fixture\n"
                "def local():\n"
                "    return LIMIT\n"
                "def test_one(shared, local):\n"
                "    assert imported() + helpers.dotted()\n"
                "class TestThing:\n"
                "    pass\n"
            ),
            # a fixture of another test module is not this module's
            "test_b.py": "import pytest\n@pytest.fixture\ndef local():\n    return 5\n",
        }
        assert unread_test_helpers(sources) == [
            "conftest.py: idle (line 6)",
            "helpers.py: dead (line 5)",
            "test_a.py: UNUSED (line 5)",
            "test_a.py: recursive (line 6)",
            "test_a.py: Alone (line 8)",
            "test_b.py: local (line 3)",
        ]

    def test_private_name_scan_finds_what_it_should(self):
        sources = {
            "a.py": (
                "import math\n"
                "_USED, _DEAD = 1, 2\n"
                "_SHARED: int = 3\n"
                "def _helper():\n"
                "    return math.pi + _USED\n"
                "def _unused():\n"
                "    return _helper()\n"
                "class _Hidden:\n"
                "    _attr = 1\n"
                "def __getattr__(name):\n"
                "    return name\n"
            ),
            "b.py": "from .a import _SHARED\nfrom . import a\nx = a._Hidden\n",
        }
        assert unread_private_names(sources) == ["a.py: _DEAD (line 2)", "a.py: _unused (line 6)"]
