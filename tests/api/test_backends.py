"""Executor backends: registry, retry policy, failure classification.

The backend seam itself — backends own *mechanism* (where jobs run, how
losses are detected), the runner owns *policy* — plus the fault-tolerance
primitives layered on top: deterministic backoff, transient-vs-permanent
classification, and the serial backend's post-hoc timeout semantics.
End-to-end fault behaviour (chaos convergence, quarantine, the ledger)
lives in ``test_fault_injection.py``.
"""

import pytest

from repro.api import (
    AttackSpec,
    LockerSpec,
    ResultsStore,
    Runner,
    Scenario,
)
from repro.api.backends import (
    ExecutorBackend,
    JobOutcome,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    TRANSIENT_ERROR_NAMES,
    backend_names,
    classify_failure,
    exception_name_from_traceback,
    make_backend,
    register_backend,
    register_transient_error,
    _BACKENDS,
)


def quick_scenario(**overrides):
    base = dict(
        name="backend-unit",
        benchmarks=("SASC",),
        lockers=(LockerSpec("assure"), LockerSpec("era")),
        attacks=(AttackSpec("snapshot", rounds=4, time_budget=0.5),),
        samples=1,
        scale=0.15,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


class TestRegistry:
    def test_builtin_backends_are_registered(self):
        assert set(backend_names()) >= {"serial", "process"}
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process"), ProcessPoolBackend)

    def test_unknown_backend_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_backend("quantum")

    def test_register_backend_makes_the_name_selectable(self):
        @register_backend("null-test")
        class NullBackend(ExecutorBackend):
            def run_round(self, round_):
                for chunk in round_.chunks:
                    for index in chunk:
                        round_.emit(JobOutcome(
                            index=index, job_id=round_.jobs[index].job_id,
                            attempt=round_.attempts.get(index, 0),
                            kind="error", error="RuntimeError: null backend"))

        try:
            assert "null-test" in backend_names()
            backend = make_backend("null-test")
            assert backend.name == "null-test"
            # Selectable through the runner; every job fails permanently.
            report = Runner(quick_scenario(), backend="null-test").run()
            assert report.executed == 0
            assert len(report.failures) == 2
        finally:
            del _BACKENDS["null-test"]

    def test_runner_accepts_a_backend_instance(self):
        report = Runner(quick_scenario(), backend=SerialBackend()).run()
        assert report.executed == 2 and not report.failures

    def test_scenario_backend_field_selects_the_backend(self, tmp_path):
        scenario = quick_scenario(backend="serial")
        report = Runner(scenario, store=ResultsStore(tmp_path / "s")).run()
        assert report.executed == 2 and not report.failures


class TestRetryPolicy:
    def test_attempts_is_retries_plus_one(self):
        assert RetryPolicy().attempts == 1
        assert RetryPolicy(retries=3).attempts == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="backoff_cap"):
            RetryPolicy(backoff_base=2.0, backoff_cap=1.0)

    def test_delay_is_deterministic_and_jittered(self):
        policy = RetryPolicy(retries=5, backoff_base=0.5, seed=11)
        first = policy.delay("job-a", 1)
        assert first == policy.delay("job-a", 1)
        # Jitter keeps the delay in [base/2, base].
        assert 0.25 <= first <= 0.5
        # Different jobs de-synchronise.
        assert policy.delay("job-a", 1) != policy.delay("job-b", 1)
        # Exponential growth, capped.
        assert policy.delay("job-a", 2) <= 1.0
        capped = RetryPolicy(retries=9, backoff_base=0.5, backoff_cap=1.0,
                             seed=11)
        assert capped.delay("job-a", 8) <= 1.0

    def test_no_delay_before_the_first_attempt(self):
        assert RetryPolicy(retries=2).delay("job", 0) == 0.0

    def test_zero_base_means_no_backoff(self):
        assert RetryPolicy(retries=2, backoff_base=0.0).delay("job", 2) == 0.0


class TestClassification:
    def test_crash_and_timeout_are_always_transient(self):
        assert classify_failure("crash") == "transient"
        assert classify_failure("timeout", "whatever text") == "transient"

    def test_error_classification_by_exception_name(self):
        transient = ("Traceback (most recent call last):\n"
                     '  File "x.py", line 1, in f\n'
                     "ConnectionResetError: peer went away\n")
        permanent = ("Traceback (most recent call last):\n"
                     '  File "x.py", line 1, in f\n'
                     "RuntimeError: boom\n")
        assert classify_failure("error", transient) == "transient"
        assert classify_failure("error", permanent) == "permanent"

    def test_qualified_exception_names_are_stripped(self):
        error = ("Traceback (most recent call last):\n"
                 "concurrent.futures.process.BrokenProcessPool: "
                 "A process in the process pool was terminated\n")
        assert exception_name_from_traceback(error) == "BrokenProcessPool"
        assert classify_failure("error", error) == "transient"

    def test_unrecognisable_text_is_permanent(self):
        assert exception_name_from_traceback("segfault, probably") == ""
        assert classify_failure("error", "segfault, probably") == "permanent"

    def test_register_transient_error_extends_the_set(self):
        name = register_transient_error("FlakyOracleTestError")
        try:
            assert classify_failure(
                "error", "FlakyOracleTestError: oracle away") == "transient"
        finally:
            TRANSIENT_ERROR_NAMES.discard(name)

    def test_transient_job_error_subclasses_classify_transient(self):
        # The documented opt-in: raise TransientJobError from a component.
        assert "TransientJobError" in TRANSIENT_ERROR_NAMES
        assert classify_failure(
            "error", "TransientJobError: try again") == "transient"


class TestSerialTimeout:
    def test_overdue_job_is_discarded_post_hoc(self):
        """The serial backend cannot pre-empt, so a job finishing over
        budget is failed as ``timeout`` — the SLA holds on every backend."""
        from repro.api import MetricSpec
        from repro.api.registry import METRICS, register_metric

        @register_metric("slow-serial-test")
        def _slow(design, rng=None, **_):
            import time

            time.sleep(0.2)
            return {"ok": True}

        scenario = quick_scenario(attacks=(),
                                  metrics=(MetricSpec("slow-serial-test"),))
        try:
            report = Runner(scenario, job_timeout=0.05).run()
        finally:
            METRICS.unregister("slow-serial-test")
        assert report.executed == 0
        assert len(report.failures) == 2
        assert all(entry["failure"] == "timeout"
                   for entry in report.failures)
        # Timeouts are transient: with retries they burn the whole budget.
        assert all(entry["classification"] == "transient"
                   for entry in report.failures)


class TestRunnerValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            Runner(quick_scenario(), retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError, match="job_timeout"):
            Runner(quick_scenario(), job_timeout=0.0)

    def test_retries_and_retry_policy_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Runner(quick_scenario(), retries=1,
                   retry_policy=RetryPolicy(retries=1))
