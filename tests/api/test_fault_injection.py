"""Fault-tolerance integration: the chaos gate, quarantine, and resume.

The headline guarantee of the robustness layer, exercised end-to-end with
the deterministic fault harness: a run suffering injected worker crashes,
transient errors and corrupt writes must *converge* — with an adequate
retry budget its store is bit-identical (modulo measured wall time) to a
fault-free serial run; past the budget a poison job is quarantined to the
``failures.jsonl`` ledger, skipped on resume, surfaced in reports — and
never silently dropped.
"""

import time

import pytest

from repro.api import (
    AttackSpec,
    LockerSpec,
    MetricSpec,
    ResultsStore,
    Runner,
    Scenario,
)
from repro.api.faults import FaultPlan, FaultSpec


def quick_scenario(**overrides):
    base = dict(
        name="chaos-unit",
        benchmarks=("SASC",),
        lockers=(LockerSpec("assure"), LockerSpec("era")),
        attacks=(AttackSpec("snapshot", rounds=4, time_budget=0.5),),
        samples=1,
        scale=0.15,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def stable_records(report) -> dict:
    """Records keyed by job id, with the measured wall time removed."""
    return {job_id: {k: v for k, v in record.items()
                     if k != "elapsed_seconds"}
            for job_id, record in report.records.items()}


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial records of the chaos scenario (shared, read-only)."""
    report = Runner(quick_scenario()).run()
    assert not report.failures
    return stable_records(report)


class TestChaosGate:
    """Faulted runs converge bit-identically to the fault-free baseline."""

    # Transient faults limited to early attempts, so retries=3 always wins;
    # rate < 1 leaves some jobs untouched (both paths exercised).
    PLAN = FaultPlan(seed=7, faults=(
        FaultSpec("crash", rate=0.5, attempts=(0,)),
        FaultSpec("transient", rate=0.4, attempts=(0, 1)),
    ))

    def test_serial_backend_converges(self, baseline, tmp_path):
        report = Runner(quick_scenario(), store=ResultsStore(tmp_path / "s"),
                        retries=3, fault_plan=self.PLAN).run()
        assert not report.failures
        assert stable_records(report) == baseline

    def test_process_backend_converges(self, baseline, tmp_path):
        store = ResultsStore(tmp_path / "s")
        report = Runner(quick_scenario(), store=store, jobs=3, retries=3,
                        fault_plan=self.PLAN).run()
        assert not report.failures
        assert stable_records(report) == baseline
        # The store agrees with the in-memory report, and nothing poisoned
        # the ledger.
        assert set(store.job_ids()) == set(baseline)
        assert not store.failures_path.exists()

    def test_deterministic_backoff_keeps_records_identical(self, baseline,
                                                           tmp_path):
        """Two faulted runs of the same plan produce the same store."""
        first = Runner(quick_scenario(), retries=3,
                       fault_plan=self.PLAN).run()
        second = Runner(quick_scenario(), retries=3,
                        fault_plan=self.PLAN).run()
        assert stable_records(first) == stable_records(second) == baseline


class TestQuarantine:
    # A fault with no attempt filter: this job never succeeds.
    POISON = FaultPlan(seed=1, faults=(
        FaultSpec("transient", rate=1.0, match="era"),))

    def test_poison_job_is_quarantined_not_dropped(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        report = Runner(quick_scenario(), store=store, retries=1,
                        fault_plan=self.POISON).run()
        # The healthy job committed; the poison one is ledgered.
        assert report.executed == 1
        assert [e["job_id"] for e in report.failures] == \
            ["attack__SASC__era__snapshot__s0"]
        entry = report.failures[0]
        assert entry["attempts"] == 2  # retries=1 -> two attempts burned
        assert entry["classification"] == "transient"
        assert "InjectedTransientError" in entry["error"]
        assert list(store.failed_job_ids()) == [entry["job_id"]]
        # The manifest names the quarantined jobs and summarises only the
        # committed ones: a quarantined job has no record, hence no entry.
        manifest = store.manifest()
        assert manifest["quarantined_jobs"] == [entry["job_id"]]
        assert [summary["job_id"] for summary in manifest["jobs"]] == \
            list(report.records)

    def test_resume_skips_known_poison(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        Runner(quick_scenario(), store=store, retries=1,
               fault_plan=self.POISON).run()
        report = Runner(quick_scenario(), store=store, retries=1,
                        fault_plan=self.POISON).run()
        assert report.executed == 0 and report.skipped == 1
        assert report.quarantined == 1
        assert report.failures[0]["skipped"] is True

    def test_raising_retries_reexecutes_quarantined_jobs(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        Runner(quick_scenario(), store=store, retries=1,
               fault_plan=self.POISON).run()
        # Higher budget than the ledgered attempt count -> re-execute; with
        # the faults gone the job completes and leaves the ledger.
        report = Runner(quick_scenario(), store=store, retries=3).run()
        assert not report.failures and report.quarantined == 0
        assert report.executed == 1 and report.skipped == 1
        assert not store.failures_path.exists()
        assert len(store.job_ids()) == 2

    def test_permanent_failure_skips_the_retry_budget(self, tmp_path):
        from repro.api.registry import METRICS, register_metric

        @register_metric("poison-permanent-test")
        def _poison(design, rng=None, **_):
            raise RuntimeError("deterministic bug")

        scenario = quick_scenario(
            attacks=(), metrics=(MetricSpec("poison-permanent-test"),))
        try:
            report = Runner(scenario, retries=5).run()
        finally:
            METRICS.unregister("poison-permanent-test")
        # A RuntimeError is permanent: one attempt, then quarantine.
        assert all(e["attempts"] == 1 for e in report.failures)
        assert all(e["classification"] == "permanent"
                   for e in report.failures)


class TestCorruptWriteFault:
    def test_corrupt_record_composes_with_resume_without_double_count(
            self, tmp_path, baseline):
        """A corrupt-on-write fault leaves the PR 6 discard path to recover
        the record; the ledger never sees the job and nothing is counted
        twice."""
        plan = FaultPlan(seed=2, faults=(
            FaultSpec("corrupt", rate=1.0, match="assure"),))
        store = ResultsStore(tmp_path / "s")
        first = Runner(quick_scenario(), store=store, fault_plan=plan).run()
        # The writer believed the write worked: no failures, full report.
        assert not first.failures and first.executed == 2
        assert not store.failures_path.exists()
        # But the record on disk is truncated; resume discards + re-executes
        # exactly that job (no fault plan now — the machine was "repaired").
        resumed = Runner(quick_scenario(), store=store).run()
        assert resumed.executed == 1 and resumed.skipped == 1
        assert stable_records(resumed) == baseline
        assert not store.failures_path.exists()
        assert store.manifest()["total_records"] == 2


class TestProcessTimeouts:
    def test_hung_worker_is_detected_and_retried(self, tmp_path):
        """A hang past ``job_timeout`` kills the worker; the retry (where
        the fault no longer strikes) completes the job."""
        plan = FaultPlan(seed=4, faults=(
            FaultSpec("hang", rate=1.0, match="era", attempts=(0,),
                      seconds=30.0),))
        scenario = quick_scenario(attacks=(),
                                  metrics=(MetricSpec("avalanche",
                                                      {"vectors": 4}),))
        store = ResultsStore(tmp_path / "s")
        report = Runner(scenario, store=store, jobs=2, retries=1,
                        job_timeout=1.0, fault_plan=plan).run()
        assert not report.failures
        assert report.executed == 2
        assert len(store.job_ids()) == 2

    def test_hang_past_the_budget_lands_in_the_ledger(self, tmp_path):
        plan = FaultPlan(seed=4, faults=(
            FaultSpec("hang", rate=1.0, match="era", seconds=30.0),))
        scenario = quick_scenario(attacks=(),
                                  metrics=(MetricSpec("avalanche",
                                                      {"vectors": 4}),))
        store = ResultsStore(tmp_path / "s")
        report = Runner(scenario, store=store, jobs=2, retries=0,
                        job_timeout=1.0, fault_plan=plan).run()
        assert [e["job_id"] for e in report.failures] == \
            ["metric__SASC__era__avalanche__s0"]
        assert report.failures[0]["failure"] == "timeout"
        # The healthy job still committed.
        assert report.executed == 1

    def test_single_pending_job_hang_is_pre_empted(self, tmp_path):
        """With ``jobs > 1`` a lone pending job still runs on the pool, so
        a hang that would never return is killed at its ``job_timeout`` —
        the resume-after-a-hung-job case."""
        plan = FaultPlan(seed=4, faults=(
            FaultSpec("hang", rate=1.0, seconds=30.0),))
        scenario = quick_scenario(lockers=(LockerSpec("era"),), attacks=(),
                                  metrics=(MetricSpec("avalanche",
                                                      {"vectors": 4}),))
        started = time.monotonic()
        report = Runner(scenario, store=ResultsStore(tmp_path / "s"),
                        jobs=2, retries=0, job_timeout=1.0,
                        fault_plan=plan).run()
        assert time.monotonic() - started < 15.0
        assert [e["failure"] for e in report.failures] == ["timeout"]
        assert report.executed == 0


class TestRunnerProgressHook:
    def test_raising_progress_hook_does_not_abort_the_run(self, tmp_path,
                                                          caplog):
        """Regression: a buggy observer must cost log lines, not records."""
        store = ResultsStore(tmp_path / "s")
        calls = []

        def bad_hook(done, total, record):
            calls.append(done)
            raise RuntimeError("observer bug")

        with caplog.at_level("WARNING"):
            report = Runner(quick_scenario(), store=store,
                            progress=bad_hook).run()
        assert report.executed == 2 and not report.failures
        assert calls == [1, 2]
        assert "progress hook raised" in caplog.text
        # The resume path's hook is guarded too.
        with caplog.at_level("WARNING"):
            resumed = Runner(quick_scenario(), store=store,
                             progress=bad_hook).run()
        assert resumed.skipped == 2


class TestScenarioRobustnessFields:
    def test_fields_are_fingerprint_stable_when_unset(self):
        """``retries``/``job_timeout`` are run defaults, not job data:
        omitting them must reproduce the historical fingerprint."""
        plain = quick_scenario()
        assert "retries" not in plain.to_dict()
        assert "job_timeout" not in plain.to_dict()
        tuned = quick_scenario(retries=2, job_timeout=60.0)
        assert tuned.to_dict()["retries"] == 2
        assert tuned.fingerprint() != plain.fingerprint()
        round_trip = Scenario.from_dict(tuned.to_dict())
        assert round_trip.retries == 2
        assert round_trip.job_timeout == 60.0

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            quick_scenario(retries=-1)
        with pytest.raises(ValueError, match="job_timeout"):
            quick_scenario(job_timeout=0.0)
