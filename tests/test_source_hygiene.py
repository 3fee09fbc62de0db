"""Module-level imports that nothing reads.

The toolchain has no linter, so this AST scan stands in for one: in
every Python file under ``src/``, ``tests/``, ``benchmarks/`` and
``examples/``, each name a module-level import binds must be read
somewhere in that module.  Names listed in the module's ``__all__``
(re-exports) and ``from __future__`` imports are exempt.
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
