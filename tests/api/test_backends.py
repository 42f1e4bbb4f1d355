"""Executors and the fault-tolerance primitives above them.

The execution rule itself — ``jobs=1`` runs in-process, ``jobs > 1`` on
the pool — plus the primitives layered on top: deterministic backoff,
transient-vs-permanent classification, and the in-process executor's
post-hoc timeout semantics.  End-to-end fault behaviour (chaos
convergence, quarantine, the ledger, pool timeouts) lives in
``test_fault_injection.py``.
"""

from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import (
    AttackSpec,
    LockerSpec,
    MetricSpec,
    Runner,
    Scenario,
    ScenarioError,
)
from repro.api import runner as runner_module
from repro.api.backends import (
    JobOutcome,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    TRANSIENT_ERROR_NAMES,
    TransientJobError,
    _run_attempt,
    classify_failure,
)
from repro.api.faults import InjectedCrashError, InjectedTransientError


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


class TestExecutionRule:
    """``jobs`` alone picks the executor: 1 in-process, more on the pool."""

    def test_jobs_picks_the_executor(self, monkeypatch):
        """Even a single pending job goes to the pool when ``jobs > 1``, so
        its timeout is pre-emptive (no in-process shortcut for small runs)."""
        rounds = []
        for cls in (SerialBackend, ProcessPoolBackend):
            def spy(self, round_, _original=cls.run_round,
                    _name=cls.__name__):
                rounds.append(_name)
                return _original(self, round_)

            monkeypatch.setattr(cls, "run_round", spy)
        scenario = quick_scenario(lockers=(LockerSpec("era"),), attacks=(),
                                  metrics=(MetricSpec("avalanche",
                                                      {"vectors": 4}),))
        for jobs in (1, 2):
            report = Runner(scenario, jobs=jobs).run()
            assert report.executed == 1 and not report.failures
        assert rounds == ["SerialBackend", "ProcessPoolBackend"]

    @pytest.mark.parametrize("key, value", [("backend", "serial"),
                                            ("max_lanes", 65536)],
                             ids=["backend", "max_lanes"])
    def test_scenario_backend_key_is_rejected(self, key, value):
        data = quick_scenario().to_dict()
        data[key] = value
        with pytest.raises(ScenarioError, match=key):
            Scenario.from_dict(data)


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


class FlakyOracleError(TransientJobError):
    """A third-party transient failure: a subclass, not a listed name."""


class FlakierOracleError(FlakyOracleError):
    """A subclass two levels below :class:`TransientJobError`."""


class NotListedError(RuntimeError):
    """A permanent failure whose base is not transient either."""


#: Exceptions a job raises, held as data: (id, exception, classification
#: of the ``error`` outcome).  Every name of ``TRANSIENT_ERROR_NAMES`` is
#: transient, subclasses of ``TransientJobError`` are transient, and a
#: subclass of a listed class is not (no widening by the class hierarchy).
RAISED = [
    ("transient-job-error", TransientJobError("try again"), "transient"),
    ("subclass", FlakyOracleError("oracle away"), "transient"),
    ("subclass-of-subclass", FlakierOracleError("oracle away"),
     "transient"),
    ("injected-transient", InjectedTransientError("injected"), "transient"),
    ("injected-crash", InjectedCrashError("injected"), "transient"),
    ("timeout", TimeoutError("slow"), "transient"),
    ("connection", ConnectionError("peer"), "transient"),
    ("connection-reset", ConnectionResetError("peer went away"),
     "transient"),
    ("connection-refused", ConnectionRefusedError("nobody home"),
     "transient"),
    ("broken-pipe", BrokenPipeError("pipe"), "transient"),
    ("eof", EOFError("eof"), "transient"),
    ("os", OSError("disk"), "transient"),
    ("io", IOError("disk"), "transient"),
    ("broken-process-pool", BrokenProcessPool("pool"), "transient"),
    ("broken-executor", BrokenExecutor("pool"), "transient"),
    ("runtime", RuntimeError("boom"), "permanent"),
    ("value", ValueError("bad"), "permanent"),
    ("key", KeyError("missing"), "permanent"),
    ("file-not-found", FileNotFoundError("no such file"), "permanent"),
    ("not-listed-subclass", NotListedError("boom"), "permanent"),
]


def _attempt(monkeypatch, exc):
    """The outcome of one attempt of a job whose body raises ``exc``."""
    def raise_it(job, **_):
        raise exc

    monkeypatch.setattr(runner_module, "execute_job", raise_it)
    job = quick_scenario().expand()[0]
    return _run_attempt(0, job, 0, 0.0, None, False, lambda _at: None)


class TestClassification:
    def test_crash_and_timeout_are_always_transient(self):
        for kind in ("crash", "timeout"):
            outcome = JobOutcome(index=0, job_id="job", attempt=0, kind=kind,
                                 error="whatever text")
            assert classify_failure(outcome) == "transient"

    @pytest.mark.parametrize("exc,expected", [case[1:] for case in RAISED],
                             ids=[case[0] for case in RAISED])
    def test_error_classification_by_exception_type(self, monkeypatch, exc,
                                                    expected):
        outcome = _attempt(monkeypatch, exc)
        assert outcome.kind == "error"
        assert type(exc).__name__ in outcome.error
        assert classify_failure(outcome) == expected

    def test_every_listed_name_is_a_case(self):
        # IOError is an alias of OSError: no class carries the name.
        listed = {type(case[1]).__name__ for case in RAISED} \
            & TRANSIENT_ERROR_NAMES
        assert listed == TRANSIENT_ERROR_NAMES - {"IOError"}

    def test_transient_job_error_subclasses_classify_transient(self):
        """A subclass raised by a job retries through the Runner, and a
        permanent failure is quarantined after one attempt."""
        from repro.api.registry import METRICS, register_metric

        calls = []

        @register_metric("flaky-oracle-test")
        def _flaky(design, rng=None, **_):
            calls.append(1)
            if len(calls) == 1:
                raise FlakyOracleError("oracle away")
            return {"ok": True}

        scenario = quick_scenario(lockers=(LockerSpec("era"),), attacks=(),
                                  metrics=(MetricSpec("flaky-oracle-test"),))
        try:
            report = Runner(scenario, retries=1).run()
        finally:
            METRICS.unregister("flaky-oracle-test")
        assert report.failures == []
        assert report.executed == 1 and len(calls) == 2


class TestSerialTimeout:
    def test_overdue_job_is_discarded_post_hoc(self):
        """An in-process job cannot be pre-empted, so a job finishing over
        budget is failed as ``timeout`` — the SLA holds for any ``jobs``."""
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
