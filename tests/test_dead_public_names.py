"""No public definition under ``src/repro`` is read only by tests.

The package's surface is what its workloads run.  This :mod:`ast` scan,
the public twin of ``tests/test_dead_private_names.py`` (whose
:func:`references` and :func:`definitions` it reuses), reports every public
top-level function, class or constant and every public method or property
of a top-level class that nothing in ``src/``, ``benchmarks/``,
``perfbench/`` or ``examples/`` reads outside the definition itself.

Readers are counted by name, as in the private scan: a ``Name`` or
attribute read, an import, a ``getattr``/``hasattr`` string and a part of a
``"module:qualname"`` by-name target (``perfbench/spans.py`` wraps its
targets that way).  A re-export in a package ``__init__`` (``from .x import
name``, ``__all__``) is not a reader.  Exempt are dunder names, decorated
top-level definitions such as the registry factories, and :data:`ALLOWED`:
names a user calls by design although no workload does.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, List, Mapping

import pytest

from tests.test_dead_private_names import definitions, references

ROOT = Path(__file__).resolve().parents[1]

#: Directories outside the package whose Python files count as readers.
READERS = ("benchmarks", "perfbench", "examples")

#: Method decorators under which a method still counts as scanned.
METHOD_DECORATORS = ("property", "staticmethod", "classmethod")

#: ``{name: reason}`` of public names kept without a reader.
ALLOWED = {
    "cancel": "ScenarioClient.cancel: the client's side of the service's "
              "cancel op",
    "leaderboard_summary": "AutoMLClassifier.leaderboard_summary: the "
                           "printed view of the auto-ML leaderboard",
    "unregister": "Registry.unregister: the inverse of register_*, which "
                  "keeps the process-wide registries clean",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def dead_public_names(sources: Dict[str, str], readers: Dict[str, str],
                      allowed: Mapping[str, str] = ALLOWED) -> List[str]:
    """``module: name (line n)`` of every public definition nothing reads.

    ``sources`` maps a module label of the package to its source text and
    ``readers`` does the same for code outside it; the reads of every
    module of both count for every definition.  A label ending in
    ``__init__.py`` is a package ``__init__``, whose imports are not reads.
    Names in ``allowed`` are not reported.
    """
    trees = {label: ast.parse(source) for label, source in sources.items()}
    total: Counter = Counter()
    for label, source in {**sources, **readers}.items():
        tree = trees.get(label) or ast.parse(source)
        total.update(references(tree,
                                imports=not label.endswith("__init__.py")))
    dead = []
    for label, tree in trees.items():
        for name, node in definitions(tree, _is_public, METHOD_DECORATORS):
            unread = total[name] - references(node)[name] <= 0
            if unread and name not in allowed:
                dead.append(f"{label}: {name} (line {node.lineno})")
    return dead


#: ``{case: (package sources, reader sources, dead names)}`` the scan must
#: get right.
CASES = {
    "unread-function": ({"m.py": "def f():\n    pass\n"}, {},
                        ["m.py: f (line 1)"]),
    "read-in-package": ({"m.py": "def f():\n    pass\n",
                         "n.py": "from m import f\nf()\n"}, {}, []),
    "read-by-example": ({"m.py": "def f():\n    pass\n"},
                        {"ex.py": "import m\nm.f()\n"}, []),
    "only-self-recursive": ({"m.py": "def f():\n    return f()\n"}, {},
                            ["m.py: f (line 1)"]),
    "reexport-is-not-a-read": (
        {"m.py": "def f():\n    pass\n",
         "__init__.py": "from .m import f\n__all__ = ['f']\n"}, {},
        ["m.py: f (line 1)"]),
    "import-outside-init-is-a-read": (
        {"m.py": "def f():\n    pass\n"}, {"ex.py": "from m import f\n"},
        []),
    "unread-constant": ({"m.py": "LIMIT = 3\n"}, {},
                        ["m.py: LIMIT (line 1)"]),
    "unread-class": ({"m.py": "class Box:\n    pass\n"}, {},
                     ["m.py: Box (line 1)"]),
    "unread-method": (
        {"m.py": "class A:\n    def g(self):\n        pass\nA()\n"}, {},
        ["m.py: g (line 2)"]),
    "unread-property": (
        {"m.py": "class A:\n    @property\n    def g(self):\n"
                 "        return 1\nA()\n"}, {},
        ["m.py: g (line 3)"]),
    "getattr-string-is-a-read": (
        {"m.py": "class A:\n    def g(self):\n        pass\n"
                 "getattr(A(), 'g', None)\n"}, {}, []),
    "hasattr-string-is-a-read": (
        {"m.py": "class A:\n    def g(self):\n        pass\n"
                 "hasattr(A(), 'g')\n"}, {}, []),
    "by-name-target-is-a-read": (
        {"m.py": "class A:\n    def g(self):\n        pass\n"},
        {"spans.py": "TARGETS = ('repro.m:A.g',)\n"}, []),
    "dunder-method": (
        {"m.py": "class A:\n    def __init__(self):\n        pass\nA()\n"},
        {}, []),
    "decorated-factory": (
        {"m.py": "@register('x')\ndef make():\n    pass\n"}, {}, []),
    "nested-function": (
        {"m.py": "def f():\n    def inner():\n        pass\nf()\n"}, {}, []),
    "allowlisted-method": (
        {"m.py": "class A:\n    def cancel(self):\n        pass\nA()\n"}, {},
        []),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_finds_exactly_the_dead_names(case):
    sources, readers, expected = CASES[case]
    assert dead_public_names(sources, readers) == expected


def _package_and_readers():
    def sources(directory: Path) -> Dict[str, str]:
        return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
                for path in sorted(directory.rglob("*.py"))}

    readers: Dict[str, str] = {}
    for directory in READERS:
        readers.update(sources(ROOT / directory))
    return sources(ROOT / "src" / "repro"), readers


def test_package_has_no_dead_public_names():
    dead = dead_public_names(*_package_and_readers())
    assert not dead, f"public definitions only tests read: {dead}"


def test_every_allowlisted_name_is_still_unread():
    dead = dead_public_names(*_package_and_readers(), allowed={})
    names = {entry.split(": ")[1].split(" ")[0] for entry in dead}
    assert set(ALLOWED) <= names, "allowlisted names now read or gone"
