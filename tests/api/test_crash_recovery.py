"""Crash recovery: corrupt records, dead workers, and mid-write leftovers.

A run can die at any point — kill -9 mid-write, an OOM-killed worker, a
truncated record from a full disk.  None of those may poison the *next* run:
unreadable records are re-executed instead of aborting the resume, a crashed
worker costs only its own chunk while every other job still commits, and
``*.json.tmp`` leftovers of interrupted atomic writes are swept on start.
"""

import json
import os
import time

from repro.api import (
    AttackSpec,
    LockerSpec,
    MetricSpec,
    ResultsStore,
    Runner,
    Scenario,
    execute_job,
)
from repro.api.registry import METRICS, register_metric


def quick_scenario(**overrides):
    base = dict(
        name="crash-unit",
        benchmarks=("SASC",),
        lockers=(LockerSpec("assure"), LockerSpec("era")),
        attacks=(AttackSpec("snapshot", rounds=4, time_budget=0.5),),
        samples=1,
        scale=0.15,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


class TestCorruptRecordResume:
    def test_truncated_record_is_reexecuted_not_fatal(self, tmp_path):
        """A record killed mid-write resumes as *missing*, not as a crash.

        Regression: the resume loop used to let ``StoreError`` from
        ``store.load`` propagate, so one truncated file made the whole
        store unresumable.
        """
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        first = Runner(scenario, store=store).run()
        assert first.executed == 2
        victim = store.job_ids()[0]
        store.record_path(victim).write_text('{"job_id": "tru')
        report = Runner(scenario, store=store).run()
        assert (report.executed, report.skipped) == (1, 1)
        # The re-executed record is whole again and loadable.
        record = store.load(victim)
        assert record["job_id"] == victim
        json.dumps(record)

    def test_reexecuted_record_matches_a_clean_run(self, tmp_path):
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        first = Runner(scenario, store=store).run()
        victim = store.job_ids()[0]
        pristine = dict(first.records[victim])
        store.record_path(victim).write_text("not json at all")
        Runner(scenario, store=store).run()
        recovered = store.load(victim)
        pristine.pop("elapsed_seconds", None)
        recovered.pop("elapsed_seconds", None)
        assert recovered == pristine

    def test_discard_removes_only_the_named_record(self, tmp_path):
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        Runner(scenario, store=store).run()
        first, second = store.job_ids()
        assert store.discard(first) is True
        assert store.discard(first) is False  # already gone
        assert store.job_ids() == [second]


class TestTempFileSweep:
    def test_sweep_removes_leftovers_in_root_and_jobs(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        scenario = quick_scenario()
        Runner(scenario, store=store).run()
        (store.jobs_dir / "stale.json.tmp").write_text('{"half": ')
        (store.root / "scenario.json.tmp").write_text('{"finger')
        assert store.sweep_temp_files() == 2
        assert store.sweep_temp_files() == 0
        assert len(store.job_ids()) == 2  # real records untouched

    def test_job_ids_never_count_tmp_files(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(), store=store).run()
        before = store.job_ids()
        (store.jobs_dir / "stale.json.tmp").write_text("")
        assert store.job_ids() == before

    def test_runner_sweeps_at_run_start(self, tmp_path):
        scenario = quick_scenario()
        store = ResultsStore(tmp_path / "store")
        Runner(scenario, store=store).run()
        stale = store.jobs_dir / "stale.json.tmp"
        stale.write_text('{"half": ')
        report = Runner(scenario, store=store).run()
        assert not stale.exists()
        assert report.skipped == 2  # the sweep never touches real records

    def test_clear_records_sweeps_too(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        Runner(quick_scenario(), store=store).run()
        (store.jobs_dir / "stale.json.tmp").write_text("")
        store.clear_records()
        assert store.job_ids() == []
        assert not (store.jobs_dir / "stale.json.tmp").exists()

    def test_sweep_on_empty_store_is_a_noop(self, tmp_path):
        store = ResultsStore(tmp_path / "nothing-here")
        assert store.sweep_temp_files() == 0


@register_metric("crash-worker-test")
def _crash_worker(design, rng=None, delay=2.5, **_):
    """Kill the worker process outright (simulates OOM-kill / segfault).

    Module level so forked pool workers inherit the registration; the delay
    lets the well-behaved job in the other worker finish and commit first.
    """
    time.sleep(delay)
    os._exit(1)


class TestCrashedWorker:
    def test_dead_worker_fails_its_chunk_and_commits_the_rest(self, tmp_path):
        """Regression: ``BrokenProcessPool`` used to propagate out of the
        drain loop, aborting the run before surviving results were
        committed and masking which jobs actually failed."""
        # One locker -> exactly two jobs -> one job per worker chunk, so
        # the crash takes down only its own chunk.
        scenario = quick_scenario(
            lockers=(LockerSpec("era"),),
            attacks=(),
            metrics=(MetricSpec("avalanche", {"vectors": 4}),
                     MetricSpec("crash-worker-test")))
        store = ResultsStore(tmp_path / "store")
        try:
            report = Runner(scenario, store=store, jobs=2).run()
        finally:
            METRICS.unregister("crash-worker-test")
        # The crash surfaces as a per-job quarantine (classified transient:
        # a lost worker is retryable), not a broken-pool crash — and the run
        # completes with the surviving record committed.
        assert [entry["job_id"] for entry in report.failures] == \
            ["metric__SASC__era__crash-worker-test__s0"]
        assert report.failures[0]["failure"] == "crash"
        assert report.failures[0]["classification"] == "transient"
        # The entry carries the traceback of the lost worker's chunk.
        assert "BrokenProcessPool" in report.failures[0]["error"]
        # The well-behaved job beat the crash and its record committed.
        committed = store.job_ids()
        assert len(committed) == 1
        assert "avalanche" in committed[0]
        # Resume re-executes only the crashed chunk's jobs.
        assert {job.job_id for job in scenario.expand()} - set(committed) == \
            {job.job_id for job in scenario.expand()
             if "crash-worker-test" in job.job_id}


class TestSigtermMidRun:
    """Graceful SIGTERM: kill a process-backend run, then resume it."""

    def test_sigterm_commits_drained_records_and_resumes(self, tmp_path):
        """Regression: SIGTERM used to leave ``ProcessPoolExecutor`` blocked
        in its ``with``-exit (``shutdown(wait=True)``) behind hung workers,
        and the aborted run committed nothing.  The backend now kills its
        in-flight workers and commits everything already reported, the
        runner's ``finally`` writes the manifest, and the CLI exits 130 —
        leaving a partial store a plain re-run completes."""
        import signal
        import subprocess
        import sys

        scenario = quick_scenario(samples=2)  # 4 jobs
        scenario_path = tmp_path / "scenario.json"
        scenario.save(scenario_path)
        # Every job sleeps first, so the run is reliably mid-flight when
        # the signal lands; the resume below runs without the fault plan.
        plan_path = tmp_path / "slow.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "faults": [{"kind": "slow", "rate": 1.0, "seconds": 1.0}],
        }))
        store_path = tmp_path / "store"

        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + \
            env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", str(scenario_path),
             "--jobs", "2", "--backend", "process",
             "--fault-plan", str(plan_path), "--store", str(store_path),
             "-q"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)

        store = ResultsStore(store_path)
        try:
            # SIGTERM as soon as the first record commits: provably
            # mid-run, with slow jobs still in flight.
            deadline = time.time() + 120.0
            while time.time() < deadline and not store.job_ids():
                if process.poll() is not None:
                    break
                time.sleep(0.05)
            assert store.job_ids(), "no record committed before the deadline"
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate()

        assert process.returncode == 130, stderr
        assert "resume" in stderr  # the operator was told how to continue

        # The interrupted store is a *partial, resumable* store: committed
        # records survived and the manifest was written on the way out.
        committed = store.job_ids()
        assert 0 < len(committed) < 4
        assert store.manifest_path.exists()

        report = Runner(scenario, store=store).run()
        assert report.total == 4
        assert report.skipped == len(committed)
        assert report.executed == 4 - len(committed)
        assert not report.failures

        baseline = Runner(quick_scenario(samples=2),
                          store=ResultsStore(tmp_path / "baseline")).run()

        def stable(records):
            return {job_id: {k: v for k, v in record.items()
                             if k != "elapsed_seconds"}
                    for job_id, record in records.items()}

        assert stable(report.records) == stable(baseline.records)
