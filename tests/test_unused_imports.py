"""No module under ``src/repro`` imports a name it never uses.

CI runs no linter; this :mod:`ast` scan checks that one rule.  It reads the
imports among each module's top-level statements and reports every bound
name that no ``Name`` node of the module reads.  Exempt are ``__init__.py``
files (their imports are re-exports), ``from __future__`` imports and
imports marked ``# noqa``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def unused_imports(source: str) -> List[str]:
    """Names bound by top-level imports of ``source`` that it never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for statement in tree.body:
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(statement, ast.ImportFrom)
                and statement.module == "__future__"):
            continue
        span = lines[statement.lineno - 1:statement.end_lineno]
        if any("# noqa" in line for line in span):
            continue
        for alias in statement.names:
            bound.setdefault(alias.asname or alias.name.split(".")[0],
                             statement.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


#: ``(source, unused names)`` pairs the scan must get right.
CASES = [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.getcwd()\n", []),
    ("import numpy as np\nx: np.ndarray\n", []),
    ("from typing import (\n    Dict,\n    List,\n)\ny: List[int]\n",
     ["Dict (line 1)"]),
    ("from __future__ import annotations\n", []),
    ("from .registry import register  # noqa: E402\n", []),
    ("from .base import (Estimator,  # noqa\n                   check)\n", []),
    ("def f():\n    import os\n", []),
]


@pytest.mark.parametrize("source, expected", CASES)
def test_scan_finds_exactly_the_unused_names(source, expected):
    assert unused_imports(source) == expected


def test_package_has_no_unused_imports():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            offenders[str(path.relative_to(PACKAGE))] = names
    assert not offenders, f"unused module-level imports: {offenders}"
