"""Every name a package or test module imports is read somewhere in that
module, so an import of a retired name cannot linger in either tree.

No linter ships with the package, so this parses each module with `ast`.
A name read only in an annotation counts as read, string annotations
included; `from __future__` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

import contractive

PACKAGE = Path(contractive.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("**/*.py"))


def _module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else path.relative_to(TESTS.parent).as_posix()


def _imported(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _read(ast.parse(annotation.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_imported(tree) - _read(tree)) == []
