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
        assert set(report.average_kpa()) == {"assure", "era"}

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
        assert store.scenario() == scenario

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
        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(), store=store).run()
        samples = store.kpa_samples()
        assert {sample.algorithm for sample in samples} == {"assure", "era"}
        assert all(0.0 <= sample.value <= 100.0 for sample in samples)

    def test_figures_and_report_read_from_store(self, tmp_path):
        from repro.eval import experiment_report_from_store, figure6_from_store

        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(), store=store).run()
        data = figure6_from_store(store)
        assert set(data.per_benchmark) == {"SASC"}
        assert set(data.average) == {"assure", "era"}
        report = experiment_report_from_store(store)
        assert "Average KPA" in report and "SASC" in report


class TestCostAwareScheduling:
    def test_chunks_dispatch_largest_first(self):
        from repro.api.backends import _job_cost, _cost_chunks

        scenario = quick_scenario(benchmarks=("SASC", "MD5"), samples=2)
        todo = list(enumerate(scenario.expand()))
        chunks = _cost_chunks(todo, workers=2)
        assert sorted(i for chunk in chunks for i in chunk) == \
            [i for i, _ in todo]
        by_index = dict(todo)
        totals = [sum(_job_cost(by_index[i]) for i in chunk)
                  for chunk in chunks]
        assert totals == sorted(totals, reverse=True)
        # MD5 is far larger than SASC, so its chunks lead the dispatch.
        assert by_index[chunks[0][0]].benchmark == "MD5"

    def test_chunks_preserve_benchmark_affinity(self):
        from repro.api.backends import _cost_chunks

        scenario = quick_scenario(benchmarks=("SASC", "MD5"), samples=4)
        todo = list(enumerate(scenario.expand()))
        by_index = dict(todo)
        for chunk in _cost_chunks(todo, workers=2):
            assert len({by_index[i].benchmark for i in chunk}) == 1

    def test_schedule_is_deterministic(self):
        from repro.api.backends import _cost_chunks

        scenario = quick_scenario(samples=3)
        todo = list(enumerate(scenario.expand()))
        assert _cost_chunks(todo, workers=2) == \
            _cost_chunks(todo, workers=2)

    def test_chunk_loads_are_balanced_not_concentrated(self):
        """A skewed budget sweep must spread its expensive points across
        chunks (greedy LPT), not slice them contiguously into one
        straggler chunk."""
        from repro.api import AttackSpec, LockerSpec, Scenario
        from repro.api.backends import _job_cost, _cost_chunks

        scenario = Scenario(
            name="skew", benchmarks=("SASC",), lockers=(LockerSpec("era"),),
            attacks=(AttackSpec("snapshot", rounds=4,
                                time_budgets=(1.0, 16.0)),),
            samples=8, scale=0.15)
        todo = list(enumerate(scenario.expand()))
        by_index = dict(todo)
        chunks = _cost_chunks(todo, workers=2)
        totals = [sum(_job_cost(by_index[i]) for i in chunk)
                  for chunk in chunks]
        assert len(totals) == 2
        # Perfect balance is possible here (8 heavy + 8 light jobs).
        assert max(totals) <= 1.25 * min(totals)

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
        assert store.completion() is None  # nothing on disk at all
        Runner(scenario, store=store).run()
        assert store.completion() == {"records": 2, "total": 2,
                                      "complete": True}
        for summary in store.manifest()["jobs"]:
            assert set(summary) == {"job_id", "kind", "benchmark", "locker",
                                    "sample", "elapsed_seconds"}
            assert summary["elapsed_seconds"] > 0
        store.record_path(store.job_ids()[0]).unlink()
        completion = store.completion()
        assert completion["records"] == 1 and not completion["complete"]

    def test_completion_falls_back_to_the_stamp(self, tmp_path):
        """An interrupted run (no manifest) still knows its expected total."""
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        Runner(scenario, store=store).run()
        store.manifest_path.unlink()
        assert store.stamped_scenario() is not None
        assert store.completion() == {"records": 2, "total": 2,
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
        assert store.completion() == {"records": 2, "total": 2,
                                      "complete": True}
        from repro.eval import store_report

        report = store_report(store)
        assert "Average KPA" in report and "no manifest" in report


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

        monkeypatch.setattr(runner_module, "_CACHE_SIZE", 1)
        monkeypatch.setattr(repro.bench, "load_benchmark",
                            lambda name, scale, seed: (name, scale, seed))
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
                    assert runner_module._load_base_design(*key) == key
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
