"""The package's third-party imports are exactly its declared dependencies.

The package's imports are read with :mod:`ast` (nothing is imported), the
standard library is filtered out with :data:`sys.stdlib_module_names`, and
each remaining top-level module must be named in ``[project]
dependencies`` of ``pyproject.toml``.  networkx is a test-only reference
(the ``test`` extra): a subprocess that cannot import it still analyses
and locks a design.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
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
    assert third_party, "expected the package to import numpy"
    missing = sorted(third_party - declared)
    assert not missing, f"imported but not declared in pyproject.toml: {missing}"
    unused = sorted(declared - third_party)
    assert not unused, f"declared in pyproject.toml but not imported: {unused}"


def test_runtime_does_not_need_networkx():
    script = textwrap.dedent("""
        import random, sys
        sys.modules["networkx"] = None  # any import of networkx now fails
        import repro.api
        from repro.bench import load_benchmark
        from repro.locking import AssureLocker
        from repro.rtlir import analyze_design
        design = load_benchmark("FIR", scale=0.1, seed=1)
        assert analyze_design(design).graph_statistics["depth"] > 0
        locked = AssureLocker("serial", rng=random.Random(1)).lock(design, 4)
        assert locked.design.key_width == 4
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
