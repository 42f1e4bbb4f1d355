"""The profile substitution table of ``docs/benchmarks.md`` is the profiles.

Every row of the table must match its entry of ``BENCHMARK_PROFILES``
(description, width, inputs, total and per-operator census), and the table
must list every profile once, so the page cannot drift from the code.
"""

import re
from pathlib import Path

import pytest

from repro.bench.profiles import BENCHMARK_PROFILES

BENCHMARKS_DOC = Path(__file__).resolve().parents[1] / "docs" / "benchmarks.md"

#: A table cell boundary: a pipe not escaped as ``\|``.
_CELL = re.compile(r"(?<!\\)\|")

#: One census entry: ```op` count``.
_CENSUS_ENTRY = re.compile(r"`([^`]+)` (\d+)")


def table_rows():
    """``{benchmark: cells}`` of the substitution table's body rows."""
    text = BENCHMARKS_DOC.read_text()
    section = text.split("## Profile substitution table", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith("| Benchmark "):
            continue
        cells = [cell.strip() for cell in _CELL.split(line)[1:-1]]
        assert cells[0] not in rows, f"{cells[0]} listed twice"
        rows[cells[0]] = cells
    return rows


def test_table_lists_every_profile():
    assert sorted(table_rows()) == sorted(BENCHMARK_PROFILES)


@pytest.mark.parametrize("name", sorted(BENCHMARK_PROFILES))
def test_table_row_matches_profile(name):
    profile = BENCHMARK_PROFILES[name]
    _, description, width, inputs, total, census = table_rows()[name]
    assert description == profile.description
    assert int(width) == profile.width
    assert int(inputs) == profile.n_inputs
    assert int(total) == profile.total_operations
    assert {op.replace("\\|", "|"): int(count)
            for op, count in _CENSUS_ENTRY.findall(census)} \
        == profile.operations
