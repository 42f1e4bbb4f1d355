"""Shared runner helper of the declarative scenario-case suite.

The hwsim idiom: one parameterised helper executes every small named JSON
case under ``cases/``, so adding regression coverage for a new axis
combination is a one-file change.  Each case file holds a complete
scenario, optional runner/fault configuration, and the store-level
invariants to assert:

```json
{
  "description": "what this case pins down",
  "scenario": { ... complete Scenario dict ... },
  "runner": {"jobs": 2, "retries": 1},   // optional Runner kwargs
  "fault_plan": { ... FaultPlan dict ... },
  "expect": {
    "jobs": 6,                    // expanded JobSpec count
    "records": 6,                 // default: jobs - quarantined
    "quarantined": 0,             // default: 0
    "complete": true,             // default: quarantined == 0
    "kpa": {"min": 0, "max": 100, "mean_min": 0, "mean_max": 100},
    "metrics": {"avalanche": {"field": "mean", "min": 0, "max": 1}},
    "resume_executes": 0          // default: 0
  }
}
```

A case may instead declare ``"expect_error": "substring"`` to pin a
validation failure.

Environment knobs (the CI scenario-matrix job):

* ``SCENARIO_CASE_JOBS`` — default ``jobs`` count for cases whose
  ``runner`` block does not set one (the suite runs once in-process and
  once on the pool in CI).
* ``SCENARIO_CASE_STORE_ROOT`` — persistent store root instead of
  ``tmp_path``, so per-case store manifests can be uploaded as artifacts.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.api import Runner, ResultsStore, Scenario, ScenarioError
from repro.api.faults import FaultPlan

CASES_DIR = Path(__file__).parent / "cases"

#: Runner keyword arguments a case file may set.
_RUNNER_KEYS = ("jobs", "retries", "job_timeout")


def _case_store(case_name: str, tmp_path: Path) -> Path:
    root = os.environ.get("SCENARIO_CASE_STORE_ROOT")
    if root:
        store = Path(root) / case_name
        shutil.rmtree(store, ignore_errors=True)
        return store
    return tmp_path / case_name


def _check_bounds(value: float, bounds: Dict, what: str) -> None:
    if "min" in bounds:
        assert value >= bounds["min"] - 1e-9, \
            f"{what} {value} below bound {bounds['min']}"
    if "max" in bounds:
        assert value <= bounds["max"] + 1e-9, \
            f"{what} {value} above bound {bounds['max']}"


def _run_plain_case(case: Dict, scenario: Scenario, store_root: Path,
                    jobs_default: int) -> None:
    expect = case.get("expect", {})
    jobs = scenario.expand()
    if "jobs" in expect:
        assert len(jobs) == expect["jobs"], \
            f"expanded {len(jobs)} job(s), case expects {expect['jobs']}"

    runner_kwargs = {"jobs": jobs_default}
    runner_kwargs.update((key, value)
                         for key, value in case.get("runner", {}).items()
                         if key in _RUNNER_KEYS)
    unknown = set(case.get("runner", {})) - set(_RUNNER_KEYS)
    assert not unknown, f"unknown runner key(s) in case: {sorted(unknown)}"
    fault_plan = (FaultPlan.from_dict(case["fault_plan"])
                  if case.get("fault_plan") else None)

    store = ResultsStore(store_root)
    report = Runner(scenario, store=store, fault_plan=fault_plan,
                    **runner_kwargs).run()

    quarantined = expect.get("quarantined", 0)
    assert len(report.failures) == quarantined, \
        (f"{len(report.failures)} quarantined job(s), case expects "
         f"{quarantined}: {[f.get('job_id') for f in report.failures]}")
    expected_records = expect.get("records", len(jobs) - quarantined)
    assert len(report.records) == expected_records

    # Store-level invariants: the manifest exists and agrees with the run.
    assert store.manifest_path.exists()
    completion = store.snapshot().completion
    assert completion is not None
    assert completion["records"] == expected_records
    assert completion["complete"] == expect.get("complete", quarantined == 0)

    if "kpa" in expect:
        kpas = [record["result"]["kpa"]
                for record in report.records.values()
                if record["kind"] == "attack"]
        assert kpas, "case asserts KPA bounds but produced no attack records"
        for value in kpas:
            _check_bounds(value, expect["kpa"], "kpa")
        mean = sum(kpas) / len(kpas)
        _check_bounds(mean, {k[len("mean_"):]: v
                             for k, v in expect["kpa"].items()
                             if k.startswith("mean_")}, "mean kpa")
    for metric_name, bounds in expect.get("metrics", {}).items():
        values = [record["result"][bounds.get("field", "mean")]
                  for record in report.records.values()
                  if record.get("metric") == metric_name]
        assert values, f"no records for metric {metric_name!r}"
        for value in values:
            _check_bounds(value, bounds, f"metric {metric_name}")

    # Resume invariant: a second run replays from the store (quarantined
    # jobs stay skipped) and serves bit-identical records.
    resumed = Runner(scenario, store=store, fault_plan=fault_plan,
                     **runner_kwargs).run()
    assert resumed.executed == expect.get("resume_executes", 0)
    assert resumed.records == report.records


@pytest.fixture
def run_scenario_case(tmp_path: Path) -> Callable[[Path], None]:
    """Execute one declarative case file and assert its invariants."""

    def run(case_path: Path) -> None:
        case = json.loads(case_path.read_text())
        assert case.get("description"), \
            f"{case_path.name} needs a 'description'"

        if "expect_error" in case:
            with pytest.raises(ScenarioError) as excinfo:
                Scenario.from_dict(case["scenario"])
            assert case["expect_error"] in str(excinfo.value), \
                (f"error {str(excinfo.value)!r} does not mention "
                 f"{case['expect_error']!r}")
            return

        scenario = Scenario.from_dict(case["scenario"])
        # A case's own ``runner.jobs`` wins; the CI matrix env var drives
        # everything else.
        jobs_default = int(os.environ.get("SCENARIO_CASE_JOBS") or 1)
        store_root = _case_store(case_path.stem, tmp_path)
        _run_plain_case(case, scenario, store_root, jobs_default)

    return run
