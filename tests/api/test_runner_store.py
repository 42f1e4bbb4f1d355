"""Runner + results store: serial/parallel equivalence, resume, aggregation."""

import json

import pytest

from repro.api import (
    AttackSpec,
    LockerSpec,
    MetricSpec,
    ResultsStore,
    Runner,
    Scenario,
    StoreError,
    execute_job,
)


def quick_scenario(**overrides):
    base = dict(
        name="runner-unit",
        benchmarks=("SASC",),
        lockers=(LockerSpec("assure"), LockerSpec("era")),
        attacks=(AttackSpec("snapshot", rounds=4, time_budget=0.5),),
        samples=1,
        scale=0.15,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


def strip_timing(record):
    record = dict(record)
    record.pop("elapsed_seconds", None)
    return record


class TestExecuteJob:
    def test_attack_record_shape(self):
        job = quick_scenario().expand()[0]
        record = execute_job(job)
        assert record["job_id"] == job.job_id
        assert record["kind"] == "attack"
        assert 0.0 <= record["result"]["kpa"] <= 100.0
        assert len(record["result"]["predicted_key"]) == record["key_width"]
        # Records must be JSON-clean end to end.
        json.dumps(record)

    def test_metric_record_shape(self):
        scenario = quick_scenario(
            attacks=(), metrics=(MetricSpec("avalanche", {"vectors": 4}),))
        record = execute_job(scenario.expand()[0])
        assert record["kind"] == "metric"
        assert record["metric"] == "avalanche"
        assert 0.0 <= record["result"]["mean"] <= 1.0
        json.dumps(record)

    def test_jobs_are_order_independent(self):
        jobs = quick_scenario(samples=2).expand()
        forward = [strip_timing(execute_job(job)) for job in jobs]
        backward = [strip_timing(execute_job(job)) for job in reversed(jobs)]
        assert forward == list(reversed(backward))


class TestRunner:
    def test_serial_run_covers_all_jobs(self):
        report = Runner(quick_scenario()).run()
        assert report.total == report.executed == 2
        assert report.skipped == 0
        assert {sample.algorithm for sample in report.kpa_samples()} \
            == {"assure", "era"}

    def test_parallel_matches_serial_bit_for_bit(self):
        scenario = quick_scenario(samples=2)
        serial = Runner(scenario, jobs=1).run()
        parallel = Runner(scenario, jobs=2).run()
        # Both follow expansion order, whatever order the jobs finished in.
        expanded = [job.job_id for job in scenario.expand()]
        assert list(serial.records) == list(parallel.records) == expanded
        for job_id in serial.records:
            assert strip_timing(serial.records[job_id]) == \
                strip_timing(parallel.records[job_id])

    def test_progress_callback_fires_per_job(self):
        seen = []
        Runner(quick_scenario(),
               progress=lambda done, total, record:
               seen.append((done, total, record["kind"]))).run()
        assert seen == [(1, 2, "attack"), (2, 2, "attack")]

    def test_invalid_jobs_count(self):
        with pytest.raises(ValueError):
            Runner(quick_scenario(), jobs=0)


class TestResumableStore:
    def test_second_run_executes_zero_jobs(self, tmp_path):
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        first = Runner(scenario, store=store).run()
        assert (first.executed, first.skipped) == (2, 0)
        second = Runner(scenario, store=store).run()
        assert (second.executed, second.skipped) == (0, 2)
        # Resumed records are the stored ones, bit for bit.
        for job_id, record in first.records.items():
            assert second.records[job_id] == record

    def test_partial_store_resumes_the_rest(self, tmp_path):
        scenario = quick_scenario(samples=2)
        store = ResultsStore(tmp_path / "store")
        jobs = scenario.expand()
        store.save(jobs[0].job_id, execute_job(jobs[0]))
        report = Runner(scenario, store=store).run()
        assert report.skipped == 1
        assert report.executed == len(jobs) - 1

    def test_no_resume_reexecutes(self, tmp_path):
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        Runner(scenario, store=store).run()
        report = Runner(scenario, store=store, resume=False).run()
        assert report.executed == 2 and report.skipped == 0

    def test_manifest_contents(self, tmp_path):
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        Runner(scenario, store=store).run()
        manifest = store.manifest()
        assert manifest["scenario"] == scenario.to_dict()
        assert manifest["scenario_fingerprint"] == scenario.fingerprint()
        assert manifest["total_records"] == 2
        assert {entry["job_id"] for entry in manifest["jobs"]} == \
            set(store.job_ids())
        assert store.snapshot().scenario == scenario

    def test_failed_jobs_do_not_discard_completed_ones(self, tmp_path):
        from repro.api import MetricSpec
        from repro.api.registry import METRICS, register_metric

        @register_metric("explode-test")
        def _explode(design, rng=None, **_):
            raise RuntimeError("boom")

        scenario = quick_scenario(
            attacks=(),
            metrics=(MetricSpec("avalanche", {"vectors": 4}),
                     MetricSpec("explode-test")))
        store = ResultsStore(tmp_path / "store")
        try:
            report = Runner(scenario, store=store, jobs=2).run()
        finally:
            METRICS.unregister("explode-test")
        # A RuntimeError is a permanent failure: quarantined, not raised —
        # the run degrades gracefully and reports the failures instead.
        assert len(report.failures) == 2
        assert all("explode-test" in entry["job_id"]
                   for entry in report.failures)
        assert all(entry["classification"] == "permanent"
                   for entry in report.failures)
        # Each entry carries the failing job's traceback.
        assert "Traceback" in report.failures[0]["error"]
        assert "RuntimeError: boom" in report.failures[0]["error"]
        # The avalanche jobs completed and were committed; the failing jobs
        # landed in the ledger.
        committed = store.job_ids()
        assert len(committed) == 2
        assert all("avalanche" in job_id for job_id in committed)
        assert store.manifest()["total_records"] == 2
        assert set(store.failed_job_ids()) == \
            {entry["job_id"] for entry in report.failures}

    def test_resume_refuses_a_foreign_scenario_store(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(seed=3), store=store).run()
        # Same job ids, different seed: resuming would mislabel old records.
        with pytest.raises(StoreError, match="different scenario"):
            Runner(quick_scenario(seed=4), store=store).run()

    def test_no_resume_overwrites_a_foreign_scenario_store(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(seed=3), store=store).run()
        report = Runner(quick_scenario(seed=4), store=store,
                        resume=False).run()
        assert report.executed == 2
        assert store.scenario_stamp() == quick_scenario(seed=4).fingerprint()
        # Only the new scenario's records remain.
        assert {r["seed"] for r in store.records()} == {4}

    def test_store_error_paths(self, tmp_path):
        store = ResultsStore(tmp_path / "empty")
        with pytest.raises(StoreError):
            store.load("nope")
        with pytest.raises(StoreError):
            store.manifest()
        assert store.job_ids() == []

    def test_kpa_samples_from_store(self, tmp_path):
        from repro.api.store import kpa_samples_from_records

        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(), store=store).run()
        samples = kpa_samples_from_records(store.records())
        assert {sample.algorithm for sample in samples} == {"assure", "era"}
        assert all(0.0 <= sample.value <= 100.0 for sample in samples)

    def test_figures_and_report_read_from_store(self, tmp_path):
        from repro.eval import store_report, store_report_json

        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(), store=store).run()
        figure6 = store_report_json(store)["figure6"]
        assert set(figure6["per_benchmark"]) == {"SASC"}
        assert set(figure6["average"]) == {"assure", "era"}
        report = store_report(store)
        assert "Average KPA" in report and "SASC" in report


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the pool's executor with one that runs tasks in-process.

    Returns ``(submitted, lost)``: the job indices in ``submit`` order, and
    a set of indices whose tasks fail as a broken pool would fail them,
    without running.
    """
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    from repro.api import backends

    submitted, lost = [], set()

    class InlineExecutor:
        """Runs each task in the calling process when it is submitted.

        It hands the worker channel over as the initializer would, but
        leaves this process's SIGTERM handler alone.
        """

        def __init__(self, max_workers, initializer, initargs):
            monkeypatch.setattr(backends, "_channel", initargs[0])

        def submit(self, fn, *args):
            submitted.append(args[0])
            future = Future()
            if args[0] in lost:
                future.set_exception(BrokenProcessPool("worker died"))
            else:
                future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(backends, "ProcessPoolExecutor", InlineExecutor)
    return submitted, lost


def run_pool_round(jobs, attempt=0):
    """One ``ProcessPoolBackend`` round over ``jobs``; its outcomes."""
    from repro.api.backends import ExecutionRound, ProcessPoolBackend

    outcomes = []
    ProcessPoolBackend().run_round(ExecutionRound(
        jobs=jobs, attempts={index: attempt for index in jobs},
        delays={}, workers=2, job_timeout=None, fault_plan=None,
        emit=outcomes.append))
    return outcomes


def avalanche_jobs():
    """Four cheap metric jobs, SASC (small) before MD5 (large)."""
    scenario = quick_scenario(
        benchmarks=("SASC", "MD5"), attacks=(),
        metrics=(MetricSpec("avalanche", {"vectors": 4}),))
    return dict(enumerate(scenario.expand()))


class TestLargestFirstDispatch:
    """Every pool round submits one task per job, in ``(-_job_cost, index)``
    order, so the executor's free workers take the largest jobs first."""

    def test_every_round_submits_one_task_per_job_largest_first(
            self, inline_pool):
        from repro.api.backends import _job_cost

        submitted, _ = inline_pool
        jobs = avalanche_jobs()
        retried = {index: jobs[index] for index in jobs if index % 2}
        for pending, attempt in ((jobs, 0), (retried, 1)):
            submitted.clear()
            outcomes = run_pool_round(pending, attempt)
            expected = sorted(pending,
                              key=lambda i: (-_job_cost(pending[i]), i))
            assert submitted == expected
            # MD5 is far larger than SASC, so its jobs lead the dispatch.
            assert pending[submitted[0]].benchmark == "MD5"
            assert sorted(outcome.index for outcome in outcomes) == \
                sorted(pending)
            assert all(outcome.ok and outcome.attempt == attempt
                       for outcome in outcomes)
        # Expansion order lists SASC first, so the rule reorders the round.
        assert list(jobs) != sorted(jobs,
                                    key=lambda i: (-_job_cost(jobs[i]), i))

    def test_a_lost_task_fails_only_its_own_job(self, inline_pool):
        """A task whose future breaks fails as ``crash`` with that
        future's traceback; every other job of the round still succeeds."""
        _, lost = inline_pool
        jobs = avalanche_jobs()
        lost.add(1)
        outcomes = {outcome.index: outcome for outcome in run_pool_round(jobs)}
        assert sorted(outcomes) == sorted(jobs)
        assert outcomes[1].kind == "crash"
        assert "BrokenProcessPool" in outcomes[1].error
        assert outcomes[1].job_id == jobs[1].job_id
        assert all(outcomes[index].ok for index in jobs if index != 1)

    def test_cost_scheduled_parallel_run_stays_bit_identical(self):
        scenario = quick_scenario(benchmarks=("SASC",), samples=2)
        serial = Runner(scenario, jobs=1).run()
        parallel = Runner(scenario, jobs=3).run()
        for job_id in serial.records:
            assert strip_timing(serial.records[job_id]) == \
                strip_timing(parallel.records[job_id])


class TestManifestCostData:
    def test_completion_states(self, tmp_path):
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        assert store.snapshot().completion is None  # nothing on disk at all
        Runner(scenario, store=store).run()
        assert store.snapshot().completion == {"records": 2, "total": 2,
                                               "complete": True}
        for summary in store.manifest()["jobs"]:
            assert set(summary) == {"job_id", "kind", "benchmark", "locker",
                                    "sample", "elapsed_seconds"}
            assert summary["elapsed_seconds"] > 0
        store.record_path(store.job_ids()[0]).unlink()
        completion = store.snapshot().completion
        assert completion["records"] == 1 and not completion["complete"]

    def test_completion_falls_back_to_the_stamp(self, tmp_path):
        """An interrupted run (no manifest) still knows its expected total."""
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        Runner(scenario, store=store).run()
        store.manifest_path.unlink()
        assert store.stamped_scenario() is not None
        assert store.snapshot().completion == {"records": 2, "total": 2,
                                               "complete": True}

    def test_corrupt_manifest_degrades_not_crashes(self, tmp_path):
        """A truncated manifest (killed mid-run before the atomic write
        existed) raises StoreError from manifest() and falls back to the
        stamp in completion() — so 'report' degrades instead of crashing."""
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        Runner(scenario, store=store).run()
        store.manifest_path.write_text('{"version": 1, "jobs": [tru')
        with pytest.raises(StoreError, match="corrupt manifest"):
            store.manifest()
        assert store.snapshot().completion == {"records": 2, "total": 2,
                                               "complete": True}
        from repro.eval import store_report

        report = store_report(store)
        assert "Average KPA" in report and "no manifest" in report


class TestManifestFromHeldRecords:
    """The manifest is written from the records the run holds.

    Its reference is the same manifest written with nothing held, which
    reads every record back from disk.
    """

    @staticmethod
    def run_counting_loads(scenario, store, **options):
        from unittest import mock

        with mock.patch.object(store, "load", wraps=store.load) as load:
            report = Runner(scenario, store=store, **options).run()
        return report, load.call_count

    @staticmethod
    def assert_manifest_matches_disk(store, scenario, report):
        written = store.manifest_path.read_bytes()
        store.write_manifest(scenario, executed=report.executed,
                             skipped=report.skipped, held={})
        assert store.manifest_path.read_bytes() == written

    def test_a_fresh_run_reads_no_record_and_a_resume_reads_each_once(
            self, tmp_path):
        scenario = quick_scenario(samples=2)
        store = ResultsStore(tmp_path / "store")
        first, loads = self.run_counting_loads(scenario, store)
        assert (first.executed, loads) == (4, 0)
        self.assert_manifest_matches_disk(store, scenario, first)
        second, loads = self.run_counting_loads(scenario, store)
        assert (second.skipped, loads) == (4, 4)
        self.assert_manifest_matches_disk(store, scenario, second)

    def test_a_record_corrupted_after_its_write_stays_out(self, tmp_path):
        from repro.api.faults import FaultPlan, FaultSpec

        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        plan = FaultPlan(faults=(FaultSpec("corrupt", rate=1.0,
                                           match="assure"),))
        report, _ = self.run_counting_loads(scenario, store,
                                            fault_plan=plan)
        assert report.executed == 2
        manifest = store.manifest()
        assert [entry["locker"] for entry in manifest["jobs"]] == ["era"]
        self.assert_manifest_matches_disk(store, scenario, report)


class TestFailureLedgerConcurrency:
    def test_concurrent_appends_never_interleave(self, tmp_path):
        """Parallel writers sharing one ledger produce only whole lines.

        Each entry is padded well past the stdio buffer so an unlocked
        append would issue several write syscalls — exactly the window the
        advisory ``flock`` in :meth:`ResultsStore.append_failure` closes.
        Every append opens its own file handle, so same-process threads
        contend on the lock the same way separate runner processes do.
        """
        import threading

        store = ResultsStore(tmp_path / "store")
        writers, per_writer = 8, 20
        padding = "x" * 200_000

        def append_entries(writer: int) -> None:
            for number in range(per_writer):
                store.append_failure({
                    "job_id": f"w{writer}-e{number}",
                    "failure": "crash",
                    "padding": padding,
                })

        threads = [threading.Thread(target=append_entries, args=(writer,))
                   for writer in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        entries = store.failures()
        assert len(entries) == writers * per_writer
        assert {entry["job_id"] for entry in entries} == {
            f"w{writer}-e{number}"
            for writer in range(writers) for number in range(per_writer)}
        # Raw check: every physical line is one complete JSON object.
        for line in store.failures_path.read_text().splitlines():
            assert json.loads(line)["failure"] == "crash"


class TestProcessCaches:
    """The per-process base-design and locked-cell caches of the runner."""

    @pytest.fixture
    def runner_module(self, monkeypatch):
        from collections import OrderedDict

        from repro.api import runner

        monkeypatch.setattr(runner, "_design_cache", OrderedDict())
        monkeypatch.setattr(runner, "_lock_cache", OrderedDict())
        return runner

    def test_concurrent_loads_with_a_bound_of_one(self, runner_module,
                                                  monkeypatch):
        """Threads that evict each other's entries never see a KeyError.

        ``serve --workers N`` runs jobs on several threads of one process;
        without the cache lock, an eviction between another thread's
        lookup and its LRU refresh raised ``KeyError``.
        """
        import sys
        import threading
        import time

        import repro.bench

        class Loaded(tuple):
            # Stands in for a design: the cache entry counts its operations.
            def num_operations(self):
                return self[2] + 10

        monkeypatch.setattr(runner_module, "_CACHE_SIZE", 1)
        monkeypatch.setattr(repro.bench, "load_benchmark",
                            lambda name, scale, seed: Loaded((name, scale,
                                                              seed)))
        errors = []

        class Name(str):
            # Hashing yields the GIL, which widens the window between a
            # cache lookup and its LRU refresh (both hash the key).
            def __hash__(self):
                time.sleep(0)
                return str.__hash__(self)

        names = [Name(f"B{index}") for index in range(3)]

        def load(thread: int) -> None:
            try:
                for number in range(500):
                    key = (names[(thread + number) % 3], 1.0, number % 2)
                    assert runner_module._load_base_design(*key) == (
                        key, key[2] + 10)
            except Exception as exc:  # reported below with the thread
                errors.append((thread, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(thread,))
                       for thread in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(runner_module._design_cache) == 1

    def test_jobs_of_one_cell_lock_once(self, runner_module, monkeypatch):
        locks = []
        make_locker = runner_module.make_locker

        def counting_make_locker(*args, **kwargs):
            locker = make_locker(*args, **kwargs)
            lock = locker.lock

            def counted_lock(*lock_args, **lock_kwargs):
                locks.append(args[0])
                return lock(*lock_args, **lock_kwargs)

            locker.lock = counted_lock
            return locker

        monkeypatch.setattr(runner_module, "make_locker",
                            counting_make_locker)
        scenario = quick_scenario(
            lockers=(LockerSpec("assure"),), samples=2,
            metrics=(MetricSpec("avalanche", {"vectors": 4}),
                     MetricSpec("key-sensitivity", {"vectors": 4})))
        jobs = scenario.expand()
        shared = [strip_timing(execute_job(job)) for job in jobs]
        # Two samples, three jobs each: one lock per sample.
        assert len(jobs) == 6 and locks == ["assure", "assure"]

        runner_module._lock_cache.clear()
        fresh = [strip_timing(execute_job(job)) for job in reversed(jobs)]
        assert shared == list(reversed(fresh))
        assert len(locks) == 4

        # A different key budget is a different cell.
        other = quick_scenario(
            lockers=(LockerSpec("assure", key_budget_fraction=0.5),),
            attacks=(), metrics=(MetricSpec("avalanche", {"vectors": 4}),))
        execute_job(other.expand()[0])
        assert len(locks) == 5

    def test_jobs_of_one_design_count_its_operations_once(
            self, runner_module, monkeypatch):
        from collections import Counter

        from repro.rtlir.design import Design

        walks = Counter()
        num_operations = Design.num_operations

        def counting_num_operations(design):
            walks[id(design)] += 1
            return num_operations(design)

        monkeypatch.setattr(Design, "num_operations", counting_num_operations)
        scenario = quick_scenario(
            attacks=(), samples=2,
            metrics=(MetricSpec("avalanche", {"vectors": 4}),))
        records = [execute_job(job) for job in scenario.expand()]
        assert len(records) == 4
        (design, count), = runner_module._design_cache.values()
        assert walks[id(design)] == 1
        assert count == num_operations(design)
        assert {record["num_operations"] for record in records} == {count}

    def test_serial_run_goes_in_expansion_order_and_locks_each_cell_once(
            self, runner_module, monkeypatch):
        """A sample's attack and metric jobs run back to back, so the
        lock cache serves the second one even when the scenario has more
        cells than the cache holds."""
        made = []
        make_locker = runner_module.make_locker

        def counting_make_locker(*args, **kwargs):
            made.append(args[0])
            return make_locker(*args, **kwargs)

        monkeypatch.setattr(runner_module, "make_locker",
                            counting_make_locker)
        scenario = Scenario(
            name="serial-order", benchmarks=("FIR",),
            lockers=(LockerSpec("era"), LockerSpec("assure")),
            attacks=(AttackSpec("snapshot", rounds=5, time_budget=1.0),),
            metrics=(MetricSpec("avalanche", {"vectors": 64}),),
            samples=6, scale=0.5, seed=3)
        seen = []
        Runner(scenario, progress=lambda done, total, record:
               seen.append(record["job_id"])).run()
        assert seen == [job.job_id for job in scenario.expand()]
        # 2 lockers x 6 samples = 12 cells, each locked once.
        assert len(made) == 12
