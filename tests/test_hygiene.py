"""Source hygiene of the package: its export list, its imports, its
top-level names and its recursion.

No linter ships with the package, so these checks read the sources with
``ast``: an import that nothing uses is dead code, an export list that
names something missing breaks ``from structsys import *``, a name
defined in two modules is one definition too many, an engine that
calls itself can raise ``RecursionError`` on a deep enough input, a
module that handles a pattern's memo itself writes a second cache policy,
a module that indexes a flow network outside ``combinat`` knows a
layout that its builder owns, and a network built from its arc columns
outside the two network builders skips the checks no other caller may.
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


def test_dir_lists_every_export_before_its_first_lookup(monkeypatch):
    # a lazily exported name is in dir() before a lookup puts it in globals
    for name in structsys._LAZY:
        monkeypatch.delitem(vars(structsys), name, raising=False)
    assert set(structsys.__all__) <= set(dir(structsys))


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


# Modules whose functions must keep their searches on explicit stacks, so
# that no input depth raises RecursionError.
ENGINE_MODULES = ("core", "combinat", "grank", "diag", "sfo", "soc", "placement")


def _self_calls(path: Path) -> list[str]:
    """Functions, nested ones and methods included, that call themselves
    by name (a method through ``self`` or ``cls``)."""
    hits = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            by_name = isinstance(f, ast.Name) and f.id == fn.name
            by_method = (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            )
            if by_name or by_method:
                hits.append(f"{path.name}:{call.lineno} {fn.name}")
    return hits


def test_no_engine_function_calls_itself():
    paths = [PACKAGE / f"{name}.py" for name in ENGINE_MODULES]
    assert [hit for path in paths for hit in _self_calls(path)] == []


def test_the_self_call_check_sees_direct_nested_and_method_recursion(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"
        "def outer():\n"
        "    def inner(k):\n"
        "        return [inner(k - 1)] if k else []\n"
        "    return inner(3), outer\n"
        "class Node:\n"
        "    def depth(self):\n"
        "        return 1 + self.depth()\n",
        encoding="utf-8",
    )
    assert _self_calls(module) == ["probe.py:2 walk", "probe.py:5 inner", "probe.py:9 depth"]


def _functions(tree: ast.Module):
    """Top-level functions and methods, as (qualified name, node) pairs."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_cli_main_alone_loads_and_emits():
    # main loads the system file, runs one command and writes what it
    # returns; the commands only analyse. _Parser.error prints argparse's
    # usage message, raised from within main's parse_args.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    callers, writers = set(), set()
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("load_system", "_emit"):
                    callers.add(name)
                if node.func.id == "print":
                    writers.add(name)
            stream = (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "stderr")
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            )
            if stream:
                writers.add(name)
    assert callers == {"main"}
    assert writers == {"main", "_emit", "_Parser.error"}


def _memo_handlers(path: Path) -> list[str]:
    """Places that read a pattern's ``_memo`` or call ``_remember``."""
    return [
        f"{path.name}:{node.lineno} {node.attr}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("_memo", "_remember")
    ]


def test_only_core_handles_the_pattern_memo():
    # every other module keeps what it reuses through Pattern._recall
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"]
    assert len(modules) >= 9
    assert [hit for path in modules for hit in _memo_handlers(path)] == []


def _layout_reads(path: Path) -> list[str]:
    """Places that index a flow's ``arc_flow`` or a network's ``arcs``, or
    do arithmetic with a network's ``sink`` or ``source``: each reads the
    arc or node layout that the network's builder owns."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Subscript):
            operands = [node.value]
            names = ("arc_flow", "arcs")
        elif isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
            names = ("sink", "source")
        elif isinstance(node, ast.AugAssign):
            operands = [node.value]
            names = ("sink", "source")
        else:
            continue
        hits += [
            f"{path.name}:{node.lineno} {side.attr}"
            for side in operands
            if isinstance(side, ast.Attribute) and side.attr in names
        ]
    return sorted(hits)


def test_only_combinat_reads_a_network_layout():
    # builders keep their layout to themselves; callers decode through the
    # engine (flow_matching) or by the builder's own arc order (max_linking)
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "combinat.py"]
    assert len(modules) >= 9
    assert [hit for path in modules for hit in _layout_reads(path)] == []


def test_the_layout_check_sees_indexing_and_node_arithmetic(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "def f(net, flow, sink):\n"
        "    used = flow.arc_flow[3:] + [net.arcs[0]]\n"
        "    y = net.sink - 1\n"
        "    y += net.source\n"
        "    return sink + 1, net.sink, iter(flow.arc_flow)\n",
        encoding="utf-8",
    )
    assert _layout_reads(module) == [
        "probe.py:2 arc_flow",
        "probe.py:2 arcs",
        "probe.py:3 sink",
        "probe.py:4 source",
    ]


def _column_uses(path: Path) -> list[tuple[str, int, str, str]]:
    """Places that name a network's ``columns`` or its trusted constructor
    ``_from_columns``, as (file, line, top-level owner, name)."""
    hits = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        hits += [
            (path.name, node.lineno, owner, node.attr)
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr in ("columns", "_from_columns")
        ]
    return sorted(hits)


def test_only_the_network_builders_use_the_arc_columns():
    # combinat reads the columns; matching_network and linking_network alone
    # write them, through the constructor that checks no arc
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    uses = [hit for path in modules for hit in _column_uses(path)]
    builders = {(name, owner) for name, _, owner, attr in uses if attr == "_from_columns"}
    assert builders == {("combinat.py", "matching_network"), ("grank.py", "linking_network")}
    assert [hit for hit in uses if hit[3] == "columns" and hit[0] != "combinat.py"] == []


def test_the_column_check_sees_reads_and_trusted_builds(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "def f(net):\n"
        "    tails = net.columns[0]\n"
        "    return FlowNetwork._from_columns(2, net.columns, 0, 1)\n"
        "class Net:\n"
        "    def build(self):\n"
        "        return self._from_columns\n"
        "make = FlowNetwork._from_columns\n"
        "def columns(net):\n"
        "    return net.arcs\n",
        encoding="utf-8",
    )
    assert _column_uses(module) == [
        ("probe.py", 2, "f", "columns"),
        ("probe.py", 3, "f", "_from_columns"),
        ("probe.py", 3, "f", "columns"),
        ("probe.py", 6, "Net", "_from_columns"),
        ("probe.py", 7, "<module>", "_from_columns"),
    ]
