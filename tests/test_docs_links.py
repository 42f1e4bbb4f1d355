"""Every Markdown file a Python file names must exist.

A code comment or docstring that points the reader at a ``*.md`` file is a
link, and a link to a missing file sends the reader nowhere.  Each ``.md``
path named in a ``.py`` file under ``src/``, ``examples/``, ``benchmarks/``
or ``tests/`` must exist relative to the repository root or to ``docs/``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Directories whose Python files are scanned.
SCANNED = ("src", "examples", "benchmarks", "tests")

#: A relative path ending in ``.md``.
MD_PATH = re.compile(r"[\w./-]*\w\.md\b")


def _named_paths():
    """Yield ``(python file, line number, named .md path)``."""
    for directory in SCANNED:
        for source in sorted((ROOT / directory).rglob("*.py")):
            lines = source.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, start=1):
                for match in MD_PATH.finditer(line):
                    yield source.relative_to(ROOT), number, match.group()


def test_scan_finds_named_paths():
    """The scan is not vacuous: code does point readers at the docs."""
    assert any(path == "docs/architecture.md"
               for _, _, path in _named_paths())


def test_every_named_markdown_file_exists():
    missing = [f"{source}:{number}: {path}"
               for source, number, path in _named_paths()
               if not ((ROOT / path).is_file()
                       or (ROOT / "docs" / path).is_file())]
    assert not missing, "dangling .md references:\n" + "\n".join(missing)
