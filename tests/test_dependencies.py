"""Every third-party module the package imports is a declared dependency.

The package's imports are read with :mod:`ast` (nothing is imported), the
standard library is filtered out with :data:`sys.stdlib_module_names`, and
each remaining top-level module must be named in ``[project]
dependencies`` of ``pyproject.toml``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _imported_top_level_modules():
    """Top-level names of the absolute imports under ``src/repro``."""
    names = set()
    for source in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies():
    """Normalised distribution names of ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
            .lower().replace("-", "_")
            for requirement in project.get("dependencies", [])}


def test_third_party_imports_are_declared():
    declared = _declared_dependencies()
    third_party = {name for name in _imported_top_level_modules()
                   if name not in sys.stdlib_module_names
                   and name != "repro"}
    assert third_party, "expected the package to import numpy and networkx"
    missing = sorted(third_party - declared)
    assert not missing, f"imported but not declared in pyproject.toml: {missing}"
