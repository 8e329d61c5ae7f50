"""Every name a package module imports is read in that module, and every
module-level function or class of the package, and each method or
property of such a class, is referenced somewhere.

The repository runs no linter, so these are the guards against imports and
definitions left behind when code moves.  ``__init__.py`` is skipped by the
import check: it imports to re-export.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bigraft"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.parent.rglob("*.py")) + sorted(
    Path(__file__).resolve().parent.rglob("*.py"))


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def referenced_names(tree: ast.AST) -> Counter:
    """Each identifier a tree reads, imports, names as an attribute or
    spells as a string constant (``__all__``, ``monkeypatch.setattr``)."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names[node.value] += 1
    return names


def definitions(module: ast.Module):
    """Each module-level function and class, as (label, node), and each
    non-dunder method or property of such a class."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{node.name}.{member.name}", member


def unreferenced_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    everywhere: Counter = sum((referenced_names(t) for t in trees.values()),
                              Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, node in definitions(trees[path]):
            # A reference inside its own body (recursion) does not count.
            outside = everywhere[node.name] - referenced_names(node)[node.name]
            if outside == 0:
                unused.append(f"{path.name}:{label}")
    return unused


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
