"""Golden record digests of the example scenarios.

Records are a pure function of the scenario: every field except the
measured ``elapsed_seconds`` must come out the same on any host, any run
and any ``jobs`` count.  This module pins that invariant as one SHA-256
per example scenario (one per generation store for the co-evolution
example), computed like ``perfbench/check.py:record_digest``:
the sorted ``(job_id, record)`` pairs with ``elapsed_seconds`` removed,
serialised by ``json.dumps(sort_keys=True, separators=(",", ":"))``.

Policy: a refactor leaves these digests alone.  A change that is meant to
alter a record updates the digest here and says in CHANGES.md which
records changed and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import ResultsStore, Runner, Scenario, run_coevo

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: ``{example file: (record count, digest)}``.
GOLDEN = {
    "scenario_smoke.json": (
        6, "0a172dd172b347149cafeae60c14a20fa8fb636ada3a40ce08db9def2c7d837c"),
    "scenario_matrix.json": (
        12, "843b9d6c4f3f8a2108211a5a33f2357f6dc31a13b68b8552132cb4f6a9dfa1ef"),
    "scenario_metrics.json": (
        6, "604730540ede6bf1ff14092bd8f1589cec36fc8cb13f873ea4dd7c068b5f1423"),
}

#: ``scenario_coevo.json``: ``{generation store: (record count, digest)}``
#: and the label of the best genome across all generations.
GOLDEN_COEVO = {
    "gen-000": (
        24, "88cf1b35235574b723f7d03facc349e1746a5596485f8d4bc4d6d04a87e618af"),
    "gen-001": (
        24, "2a6d891af0f5a76aac8e81e14a43da327b2e21fb45fdaf6f065180d68d340978"),
    "gen-002": (
        24, "f89a32f9f331565d32434433f7527dec3f23a398454f7a9ad3e9e02d871c41f8"),
}
GOLDEN_COEVO_BEST = "multi-round-g0"


def record_digest(store: ResultsStore) -> str:
    """SHA-256 over the store's ``(job_id, record)`` pairs, timing removed."""
    rows = []
    for job_id in store.job_ids():
        record = store.load(job_id)
        record.pop("elapsed_seconds", None)
        rows.append([job_id, record])
    rows.sort(key=lambda row: row[0])
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("example", sorted(GOLDEN))
def test_example_records_match_golden_digest(example, tmp_path):
    records, digest = GOLDEN[example]
    store = ResultsStore(tmp_path / "store")
    report = Runner(Scenario.from_file(EXAMPLES / example), store=store,
                    jobs=1).run()
    assert report.executed == records
    assert len(store.job_ids()) == records
    assert record_digest(store) == digest


def test_coevo_generation_records_match_golden_digests(tmp_path):
    report = run_coevo(Scenario.from_file(EXAMPLES / "scenario_coevo.json"),
                       store_root=tmp_path, jobs=1)
    assert report.executed_jobs == sum(
        records for records, _ in GOLDEN_COEVO.values())
    digests = {path.name: (len(ResultsStore(path).job_ids()),
                           record_digest(ResultsStore(path)))
               for path in sorted(tmp_path.glob("gen-*"))}
    assert digests == GOLDEN_COEVO
    assert report.best["label"] == GOLDEN_COEVO_BEST
