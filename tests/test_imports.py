"""Every name a module of the package imports is used there or re-exported.

The project's dependencies include no linter, so this walks each module's
syntax tree with the standard library's ``ast``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgcn"


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
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
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
