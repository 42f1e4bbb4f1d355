"""Golden record digests of the example scenarios.

Records are a pure function of the scenario: every field except the
measured ``elapsed_seconds`` must come out the same on any host, any run
and any ``jobs`` count.  This module pins that invariant as one SHA-256
per example scenario, computed like ``perfbench/check.py:record_digest``:
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

from repro.api import ResultsStore, Runner, Scenario

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

#: A SnapShot scenario at ``time_budget`` 12, so the auto-ML search runs the
#: whole roster (logistic regression and the MLP included) and not only the
#: naive Bayes candidates the example scenarios reach.
FULL_BUDGET = {
    "name": "full-budget",
    "benchmarks": ["SASC"],
    "lockers": [{"algorithm": "assure", "key_budget_fraction": 0.75},
                {"algorithm": "era", "key_budget_fraction": 0.75}],
    "attacks": [{"name": "snapshot", "rounds": 20, "time_budget": 12}],
    "samples": 1,
    "scale": 0.15,
    "seed": 1,
}
FULL_BUDGET_GOLDEN = (
    2, "4897372763ceb7bf79e41b6ca22ac458afae871b738d200d92591654ca2f0f90")

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


def test_full_budget_records_match_golden_digest(tmp_path):
    records, digest = FULL_BUDGET_GOLDEN
    store = ResultsStore(tmp_path / "store")
    report = Runner(Scenario.from_dict(FULL_BUDGET), store=store,
                    jobs=1).run()
    assert report.executed == records
    assert record_digest(store) == digest
