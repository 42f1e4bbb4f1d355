"""No private definition under ``src/repro`` is left without a reader.

A deletion tends to leave its helpers behind: a private function, class,
constant or method that nothing names any more.  This :mod:`ast` scan, run
beside ``tests/test_unused_imports.py``, reports them.  A definition counts
as named when a ``Name`` read, an attribute read, an import of its name or
a by-name read (:func:`references`) appears anywhere in ``src/repro``
outside the definition itself (name-based: a read of ``_helper`` in one
module counts for every ``_helper``).  ``tests/test_dead_public_names.py``
runs the same walk over public names.

Scanned are the top-level ``def``/``class`` statements and the plain
assignments of each module, and the methods of its top-level classes,
whose names start with one underscore.  Exempt are dunder names and
decorated definitions, such as the registry factories that
``@register_locker`` reaches without naming them.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: A by-name target such as ``"repro.sim.vectors:random_input_batch"``.
_QUALNAME = re.compile(r"[A-Za-z_][\w.]*:[A-Za-z_][\w.]*")


def _is_private(name: str) -> bool:
    return (name.startswith("_") and name != "_"
            and not (name.startswith("__") and name.endswith("__")))


def references(tree: ast.AST, imports: bool = True) -> Counter:
    """How often each name is read, read as an attribute or imported.

    A name also counts as read when it is the string argument of
    ``getattr``/``hasattr`` or a part of a ``"module:qualname"`` string
    (the form by-name targets such as tracer entry points take).
    ``imports=False`` leaves ``from x import name`` out, for a package
    ``__init__`` whose imports only re-export.
    """
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and imports:
            counts.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            counts[node.args[1].value] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _QUALNAME.fullmatch(node.value)):
            counts.update(node.value.split(":")[1].split("."))
    return counts


def definitions(tree: ast.Module, wanted: Callable[[str], bool],
                method_decorators: Tuple[str, ...] = ()
                ) -> Iterator[Tuple[str, ast.AST]]:
    """``(name, node)`` of each definition whose name is ``wanted``.

    Covered are the undecorated top-level functions and classes, the plain
    assignments of the module and the methods of its top-level classes
    that are undecorated or decorated only by ``method_decorators``.
    """
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            if not statement.decorator_list and wanted(statement.name):
                yield statement.name, statement
            if isinstance(statement, ast.ClassDef):
                for member in statement.body:
                    if (isinstance(member, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                            and all(isinstance(decorator, ast.Name)
                                    and decorator.id in method_decorators
                                    for decorator in member.decorator_list)
                            and wanted(member.name)):
                        yield member.name, member
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (statement.targets if isinstance(statement, ast.Assign)
                       else [statement.target])
            for target in targets:
                if isinstance(target, ast.Name) and wanted(target.id):
                    yield target.id, statement


def dead_private_names(sources: Dict[str, str]) -> List[str]:
    """``module: name (line n)`` of every private definition nothing names.

    ``sources`` maps a module label to its source text; every module's
    reads count for every other.
    """
    trees = {label: ast.parse(source) for label, source in sources.items()}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(references(tree))
    dead = []
    for label, tree in trees.items():
        for name, node in definitions(tree, _is_private):
            if total[name] - references(node)[name] <= 0:
                dead.append(f"{label}: {name} (line {node.lineno})")
    return dead


#: ``{case: (sources, dead names)}`` the scan must get right.
CASES = {
    "unread-function": ({"m": "def _f():\n    pass\n"}, ["m: _f (line 1)"]),
    "read-function": ({"m": "def _f():\n    pass\n_f()\n"}, []),
    "only-self-recursive": ({"m": "def _f():\n    return _f()\n"},
                            ["m: _f (line 1)"]),
    "imported-elsewhere": (
        {"m": "def _f():\n    pass\n", "n": "from m import _f\n"}, []),
    "unread-constant": ({"m": "_LIMIT = 3\n"}, ["m: _LIMIT (line 1)"]),
    "annotated-constant": ({"m": "_LIMIT: int = 3\nx = _LIMIT\n"}, []),
    "unread-class": ({"m": "class _Box:\n    pass\n"}, ["m: _Box (line 1)"]),
    "unread-method": (
        {"m": "class A:\n    def _g(self):\n        pass\n"},
        ["m: _g (line 2)"]),
    "method-read-on-self": (
        {"m": "class A:\n    def _g(self):\n        pass\n"
              "    def h(self):\n        self._g()\n"}, []),
    "dunder-method": (
        {"m": "class A:\n    def __init__(self):\n        pass\n"}, []),
    "decorated-factory": (
        {"m": "@register('x')\ndef _make():\n    pass\n"}, []),
    "nested-function": (
        {"m": "def f():\n    def _inner():\n        pass\n"}, []),
    "underscore-and-dunder": ({"m": "_ = 1\n__all__ = []\n"}, []),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_finds_exactly_the_dead_names(case):
    sources, expected = CASES[case]
    assert dead_private_names(sources) == expected


def test_package_has_no_dead_private_names():
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    dead = dead_private_names(sources)
    assert not dead, f"private definitions nothing names: {dead}"
