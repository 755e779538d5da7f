"""Every name a module of the package imports is used there or re-exported,
every name a module exports is bound there, every private module-level name
is read somewhere in the package, and every public function or class has a
reader outside the tests.

The project's dependencies include no linter, so these checks walk each
module's syntax tree with the standard library's ``ast``; the export check
imports the module.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sgcn"


def _is_all(stmt) -> bool:
    """Whether ``stmt`` assigns the module's ``__all__``."""
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
    )


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if _is_all(node):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from .graph import kept, exported, dropped\n"
        "__all__ = ['exported']\n"
        "x = scipy.sparse.eye(2) @ np.ones(2) + kept\n"
    )
    assert unused_imports(source) == ["dropped"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    # A name removed from a module must leave its __all__ too.
    name = "sgcn" if path.stem == "__init__" else f"sgcn.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def _module_level(statements):
    """The statements at a module's top level, those inside ``if`` and ``try`` included."""
    for stmt in statements:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            yield from _module_level(stmt.body + stmt.orelse + getattr(stmt, "finalbody", []))
            for handler in getattr(stmt, "handlers", []):
                yield from _module_level(handler.body)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private top-level function, class or constant no module reads.

    A name counts as read where an expression loads it, where an attribute
    access names it, or where an import brings it into another module.
    Dunder names such as ``__all__`` are not private.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in _module_level(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_private_checker_flags_only_unread_names():
    sources = {
        "a": (
            "import ctypes\n"
            "_LIMIT, _UNUSED = 1, 2\n"
            "try:\n"
            "    _trim = ctypes.CDLL(None).malloc_trim\n"
            "except OSError:\n"
            "    _trim = None\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    return _helper()\n"
            "class _Gone:\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def public():\n"
            "    return _trim\n"
        ),
        "b": "from . import a\nfrom .a import _imported\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a:_Gone", "a:_UNUSED", "a:_dead"]


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def _references(source: str) -> set[str]:
    """The names a source reads: loaded names, attribute names and string constants.

    Imports and the ``__all__`` list do not count as reads.
    """
    tree = ast.parse(source)
    exported = {id(node) for stmt in tree.body if _is_all(stmt) for node in ast.walk(stmt)}
    read = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_public_names(modules: dict[str, str], readers: list[str], readme: str) -> list[str]:
    """``module:name`` for each public top-level function or class nothing reads.

    The readers are the ``modules`` themselves, the other ``readers``
    sources (see :func:`_references`), and the identifiers in the code spans
    and code blocks of ``readme``. A name's definition and its ``__all__``
    entries are not reads.
    """
    code = " ".join(re.findall(r"```.*?```|`[^`]+`", readme, re.S))
    read = set(re.findall(r"\w+", code))
    defined = []
    for module, source in modules.items():
        read |= _references(source)
        defined += [(module, stmt.name) for stmt in _module_level(ast.parse(source).body)
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")]
    for source in readers:
        read |= _references(source)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_public_checker_flags_only_unread_names():
    modules = {
        "a": (
            "__all__ = ['called', 'by_string', 'in_readme', 'exported_only', 'Unread']\n"
            "def called():\n"
            "    pass\n"
            "def by_attribute():\n"
            "    pass\n"
            "def by_string():\n"
            "    pass\n"
            "def in_readme():\n"
            "    pass\n"
            "def exported_only():\n"
            "    pass\n"
            "class Unread:\n"
            "    def method(self):\n"
            "        return called()\n"
        ),
        "__init__": "from .a import exported_only, Unread\n__all__ = ['exported_only', 'Unread']\n",
    }
    readers = ["import a\na.by_attribute()\nTARGETS = (('a', 'by_string'),)\n"]
    readme = "Call `a.in_readme()`; exported_only and Unread are prose.\n"
    assert unread_public_names(modules, readers, readme) == ["a:Unread", "a:exported_only"]


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for folder in ("demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert unread_public_names(modules, readers, readme) == []
