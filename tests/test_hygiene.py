"""Source hygiene of the package: its export list, its imports and its
top-level names.

No linter ships with the package, so these checks read the sources with
``ast``: an import that nothing uses is dead code, an export list that
names something missing breaks ``from structsys import *``, and a name
defined in two modules is one definition too many.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import structsys

PACKAGE = Path(structsys.__file__).resolve().parent
NOQA = "# noqa: F401"


def test_every_export_resolves_once():
    names = structsys.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(structsys, n)] == []


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code and in annotations given as strings."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None
    ]
    annotations += [
        node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.returns
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and NOQA not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {bound}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def test_the_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from typing import Iterable, Sequence\n"
        "import os  # noqa: F401\n"
        "from .core import Pattern\n"
        "def f(x: 'Iterable[int]') -> None:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == ["probe.py:1 Sequence", "probe.py:3 Pattern"]


def _defined_names(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assigned names (imports excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_no_two_modules_define_the_same_top_level_name():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 9
    owners: dict[str, list[str]] = {}
    for path in modules:
        for name in _defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            owners.setdefault(name, []).append(path.name)
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}
