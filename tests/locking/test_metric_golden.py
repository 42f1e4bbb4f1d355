"""Golden record digests of the simulation-driven metrics, pinned bit for bit.

The example-scenario goldens pin the metrics on FIR only.  This module pins
every simulation-driven record on the two designs whose locked operations
are the costliest to simulate: the mul-heavy DFT and MD5.  Each case runs
one scenario per (benchmark, packaged locker): the ``corruption``,
``key-sensitivity`` and ``avalanche`` metric jobs and one SnapShot job with
functional-KPA validation.  The vector count is not a multiple of 8, so
every sweep point block carries pad lanes.

Each digest hashes the sorted ``(job_id, record)`` pairs with the measured
``elapsed_seconds`` removed, like ``tests/api/test_golden_records.py``.

Policy: a refactor of the simulator leaves these digests alone.  A change
that is meant to alter a record updates the digest here and says in
CHANGES.md which cases changed and why.
"""

import hashlib
import json

import pytest

from repro.api import Runner, Scenario

SCALE = 0.25
SEED = 3
VECTORS = 37

#: ``{(benchmark, locker): digest}``.
GOLDEN = {
    ("DFT", "assure"):
        "172600547c7241387a15cefc9b7b6dec1cfe2ed607ff0db9f59880d4b6cbdd21",
    ("DFT", "era"):
        "3e3149bf18ed7d36c29271717d7fbfd29450d33481902317f8704a6edd3e2950",
    ("DFT", "hra"):
        "c1bb2a913656c0f093065677456c21d6a08ea76a9fc0ea2f5e2661ecbd48a0f5",
    ("MD5", "assure"):
        "78576059cc1b9a7a57dff9206895171c55847b888f4f0474b7b94aa1525d618f",
    ("MD5", "era"):
        "adc949e058a328370429938abd5396952b3eebf054c58a37ebc28ef55400d22e",
    ("MD5", "hra"):
        "cdc30f3e9882edd96ad3b1d330c0c44ac9898cd6dc85e8f536ebe7c311e767f0",
}


def scenario_for(benchmark: str, locker: str) -> Scenario:
    return Scenario.from_dict({
        "name": f"metric-golden-{benchmark}-{locker}",
        "benchmarks": [benchmark],
        "lockers": [{"algorithm": locker, "key_budget_fraction": 0.5}],
        "attacks": [{"name": "snapshot", "rounds": 2, "time_budget": 0.5,
                     "feature_set": "pair",
                     "functional_vectors": VECTORS}],
        "metrics": [
            {"name": "corruption",
             "options": {"vectors": VECTORS, "wrong_keys": 3}},
            {"name": "key-sensitivity", "options": {"vectors": VECTORS}},
            {"name": "avalanche", "options": {"vectors": VECTORS}},
        ],
        "samples": 1,
        "scale": SCALE,
        "seed": SEED,
    })


def records_digest(benchmark: str, locker: str) -> str:
    """SHA-256 over the scenario's ``(job_id, record)`` pairs, timing
    removed."""
    report = Runner(scenario_for(benchmark, locker), jobs=1).run()
    assert not report.failures
    rows = []
    for job_id, record in report.records.items():
        record = dict(record)
        record.pop("elapsed_seconds", None)
        rows.append([job_id, record])
    rows.sort(key=lambda row: row[0])
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_vector_count_leaves_pad_lanes():
    assert VECTORS % 8


@pytest.mark.parametrize("case", list(GOLDEN), ids="-".join)
def test_metric_records_match_golden_digest(case):
    assert records_digest(*case) == GOLDEN[case]
