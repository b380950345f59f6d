"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import rmclass

MODULES = sorted(p for p in Path(rmclass.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def used_names(tree):
    """Names read anywhere in the tree, including inside string constants
    that parse as expressions (quoted annotations such as "AffineElement")."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= used_names(inner)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in sorted(imported.items()) if name not in used]
    assert not unused, unused
