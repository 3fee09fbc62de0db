"""Source rules the toolchain has no linter for, as AST scans.

* Module-level imports that nothing reads: in every Python file under
  ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``, each name a
  module-level import binds must be read somewhere in that module.
  Names listed in the module's ``__all__`` (re-exports) and ``from
  __future__`` imports are exempt.
* No dead definitions: every function, method or class defined under
  ``src/`` must have its name read somewhere in ``src/``, ``tests/``,
  ``benchmarks/``, ``perfbench/`` or ``examples/``.  A read is a
  ``Name`` or ``Attribute`` load, an import alias, or a string constant
  (the ``getattr`` spelling).  Dunders are exempt; there is no allowlist.
* No ``np.unique`` under ``src/`` (DESIGN.md D41).  On numpy 2.4.6
  (2-core container, Python 3.11.7) ``np.unique`` of 20,000 int64 costs
  2.9–3.2 ms against 0.20–0.23 ms for sort-and-diff, and
  ``np.unique(..., return_index=True, return_inverse=True)`` costs
  2.0–2.7 ms, almost all of it a stable int64 argsort (timsort).  A
  default argsort plus ``np.diff`` or ``reduceat`` does the same jobs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")


def _imports(body):
    """``(name, line)`` for every name bound by an import in ``body``,
    descending into module-level ``if``/``try`` blocks."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _imports(node.body)
            yield from _imports(node.orelse)
            for handler in getattr(node, "handlers", ()):
                yield from _imports(handler.body)
            yield from _imports(getattr(node, "finalbody", ()))


def _exported(tree):
    """The strings of every module-level ``__all__`` assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return names


def unused_imports(source):
    """``(line, name)`` of each module-level import ``source`` never reads."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    keep = read | _exported(tree)
    return sorted(
        (line, name) for name, line in _imports(tree.body) if name not in keep
    )


class TestUnusedImports:
    @pytest.mark.parametrize("directory", SCANNED)
    def test_every_module_level_import_is_read(self, directory):
        found = [
            f"{path.relative_to(REPO).as_posix()}:{line} {name}"
            for path in sorted((REPO / directory).rglob("*.py"))
            for line, name in unused_imports(path.read_text())
        ]
        assert found == []

    def test_the_scan_flags_what_it_should(self):
        source = (
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "from json import dumps, loads\n"
            "from . import sibling\n"
            "try:\n"
            "    import yaml\n"
            "except ImportError:\n"
            "    import tomllib\n"
            "__all__ = ['sibling']\n"
            "def f(x: dumps):\n"
            "    return os.sep\n"
        )
        assert unused_imports(source) == [
            (3, "osp"), (4, "loads"), (7, "yaml"), (9, "tomllib"),
        ]


READERS = SCANNED + ("perfbench",)


def definitions(source):
    """``(line, name)`` of every non-dunder function, method or class
    ``source`` defines, at any depth."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def names_read(source):
    """Every name ``source`` reads: ``Name`` and ``Attribute`` loads,
    import aliases and string constants."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


class TestNoDeadDefinitions:
    def test_every_src_definition_is_read(self):
        read = set()
        for directory in READERS:
            for path in (REPO / directory).rglob("*.py"):
                read |= names_read(path.read_text())
        found = [
            f"{path.relative_to(REPO).as_posix()}:{line} {name}"
            for path in sorted((REPO / "src").rglob("*.py"))
            for line, name in definitions(path.read_text())
            if name not in read
        ]
        assert found == []

    def test_the_scan_flags_what_it_should(self):
        source = (
            "import pkg.used_module\n"
            "from lib import imported\n"
            "class Kept:\n"
            "    def __init__(self):\n"
            "        self.stored = 1\n"
            "    def method(self):\n"
            "        return getattr(self, 'by_string')\n"
            "    def by_string(self):\n"
            "        pass\n"
            "    def stored(self):\n"
            "        pass\n"
            "def used_module():\n"
            "    return Kept().method()\n"
            "def imported():\n"
            "    pass\n"
            "def dead():\n"
            "    pass\n"
        )
        read = names_read(source)
        dead = [name for _, name in definitions(source) if name not in read]
        assert dead == ["stored", "dead"]


def unique_calls(source):
    """Line of each call to numpy's ``unique`` in ``source``, through a
    module alias (``np.unique``) or a name imported from numpy."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "numpy"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "unique"
            )
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "unique"
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ) or (isinstance(func, ast.Name) and func.id in names):
            lines.append(node.lineno)
    return sorted(lines)


class TestNoNumpyUnique:
    def test_src_calls_no_np_unique(self):
        found = [
            f"{path.relative_to(REPO).as_posix()}:{line}"
            for path in sorted((REPO / "src").rglob("*.py"))
            for line in unique_calls(path.read_text())
        ]
        assert found == []

    def test_the_scan_flags_what_it_should(self):
        source = (
            "import numpy as np\n"
            "import numpy\n"
            "from numpy import unique as uniq\n"
            "def f(x, frame):\n"
            "    a = np.unique(x)\n"
            "    b = numpy.unique(x, return_index=True)\n"
            "    c = uniq(x)\n"
            "    return frame.unique(), np.sort(x)\n"
        )
        assert unique_calls(source) == [5, 6, 7]
        assert unique_calls("import numpy as np\nnp.sort([1])\n") == []
