"""Warm pool workers: one pool per scope, rebuilt only when it broke.

Inside a :func:`~repro.api.backends.pool_scope` (every ``Runner.run``, and
every scenario-server worker thread for its whole life) pool rounds reuse
one set of worker processes.  These tests pin what that must not change:
the workers are really reused, a pool that broke or lost a process is
replaced before it fails a job, a message of another round is never
committed, records equal a serial run's, and no process outlives a run or
a stopped server.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.api import LockerSpec, MetricSpec, ResultsStore, Runner, Scenario
from repro.api.backends import JobOutcome, pool_scope
from repro.api.client import ScenarioClient
from repro.api.faults import FaultPlan, FaultSpec
from repro.api.registry import METRICS, register_metric
from repro.api.server import ScenarioServer


@register_metric("worker-pid-test")
def _worker_pid(design, rng=None, sleep=0.3, **_):
    """The PID of the process that ran the job.

    Registered at import, so forked pool workers resolve it; the sleep
    keeps each job long enough that both workers of a pool take jobs.
    """
    time.sleep(sleep)
    return {"pid": os.getpid()}


@pytest.fixture(scope="module", autouse=True)
def _unregister_pid_metric():
    yield
    METRICS.unregister("worker-pid-test")


def quick_scenario(name="warm-unit", seed=3, metric=None, samples=1):
    return Scenario(
        name=name,
        benchmarks=("SASC",),
        lockers=(LockerSpec("assure"), LockerSpec("era")),
        attacks=(),
        metrics=(metric or MetricSpec("avalanche", {"vectors": 4}),),
        samples=samples,
        scale=0.15,
        seed=seed,
    )


def pid_scenario(name="warm-pid", seed=3):
    """Four jobs that report the PID of the worker that ran them."""
    return quick_scenario(name=name, seed=seed,
                          metric=MetricSpec("worker-pid-test"), samples=2)


def pids(records):
    return {record["result"]["pid"] for record in records}


def stable(records):
    """Records keyed by job id, with the measured wall time removed."""
    return {record["job_id"]: {key: value for key, value in record.items()
                               if key != "elapsed_seconds"}
            for record in records}


def store_records(path):
    store = ResultsStore(path)
    return [store.load(job_id) for job_id in store.job_ids()]


def wait_until(condition, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.05)


@pytest.fixture(scope="module")
def serial_records():
    """Fault-free serial records of the quick scenario (read-only)."""
    return stable(Runner(quick_scenario()).run().records.values())


# --------------------------------------------------------------- reuse


def runs_in_a_scope(tmp_path):
    """Records of two PID runs in one explicit scope."""
    with pool_scope():
        return [list(Runner(pid_scenario(), jobs=2).run().records.values())
                for _ in range(2)]


def runs_on_a_server(tmp_path):
    """Records of two PID scenarios submitted to one server thread."""
    server = ScenarioServer(runs_root=tmp_path / "runs", run_jobs=2)
    server.start()
    try:
        with ScenarioClient(server.address) as client:
            runs = []
            for seed in (3, 4):
                job = client.submit(pid_scenario(seed=seed))
                final = client.watch(job["job_id"])
                assert final["state"] == "done"
                runs.append(store_records(final["store"]))
    finally:
        server.stop(mode="drain")
    return runs


#: Two runs sharing one scope, held as data: (id, runs -> [records, ...]).
SHARED_SCOPES = [
    ("pool-scope", runs_in_a_scope),
    ("server-thread", runs_on_a_server),
]


@pytest.mark.parametrize("runs", [case[1] for case in SHARED_SCOPES],
                         ids=[case[0] for case in SHARED_SCOPES])
def test_runs_in_one_scope_share_the_workers(tmp_path, runs):
    first, second = runs(tmp_path)
    assert len(pids(first)) == 2
    assert os.getpid() not in pids(first)
    assert pids(second) == pids(first)


#: Processes of a warm pool killed while it is idle, held as data: (id,
#: victim(pool, worker PIDs of the run before)).
VICTIMS = [
    ("worker", lambda pool, workers: min(workers)),
    ("manager", lambda pool, workers: pool.manager._process.pid),
]


@pytest.mark.parametrize("victim", [case[1] for case in VICTIMS],
                         ids=[case[0] for case in VICTIMS])
def test_process_killed_while_idle_is_replaced(victim):
    """The check before reuse finds the dead process, so the next run gets
    a new pool instead of losing its jobs to the broken one."""
    with pool_scope() as pool:
        first = pids(Runner(pid_scenario(), jobs=2).run().records.values())
        pid = victim(pool, first)
        os.kill(pid, signal.SIGKILL)
        wait_until(lambda: pid not in {
            process.pid for process in multiprocessing.active_children()})
        report = Runner(pid_scenario(), jobs=2, retries=0).run()
    assert report.failures == []
    assert report.executed == 4
    assert not pids(report.records.values()) & first


# ------------------------------------------------------------- rebuild


#: Runs after which the scope's pool must be rebuilt, held as data:
#: (id, Runner keyword arguments of the run).
REBUILT = [
    ("crash", dict(jobs=2, retries=1, fault_plan=FaultPlan(seed=7, faults=(
        FaultSpec("crash", rate=1.0, attempts=(0,)),)))),
    ("hang", dict(jobs=2, retries=1, job_timeout=1.0,
                  fault_plan=FaultPlan(seed=4, faults=(
                      FaultSpec("hang", rate=1.0, match="era",
                                attempts=(0,), seconds=30.0),)))),
    ("other-worker-count", dict(jobs=3)),
]


@pytest.mark.parametrize("options", [case[1] for case in REBUILT],
                         ids=[case[0] for case in REBUILT])
def test_next_run_gets_a_fresh_pool(tmp_path, serial_records, options):
    with pool_scope() as pool:
        before = pids(Runner(pid_scenario(), jobs=2).run().records.values())
        report = Runner(quick_scenario(), **options).run()
        assert report.failures == []
        Runner(quick_scenario(), store=ResultsStore(tmp_path / "warm"),
               jobs=2).run()
        after = {process.pid for process in pool.processes()}
    assert len(after) == 2
    assert not after & before
    assert stable(store_records(tmp_path / "warm")) == serial_records


# ---------------------------------------------------------- round token


def forged_done(token, index, job_id):
    return ("done", token, JobOutcome(index=index, job_id=job_id, attempt=0,
                                      record={"forged": True}))


#: Messages of another round planted in the warm pool's queue, held as
#: data: (id, message built from the previous round's token and the index
#: and id of the job that starts last).  Accepted, a ``done`` would commit
#: a forged record, and the ``start`` (at monotonic time 0) would get the
#: pool killed before that job even started.
STALE = [
    ("done-of-the-previous-round", forged_done),
    ("done-of-no-round",
     lambda token, index, job_id: forged_done(0, index, job_id)),
    ("start-of-the-previous-round",
     lambda token, index, job_id: ("start", token, index, 0.0)),
]


@pytest.mark.parametrize("message", [case[1] for case in STALE],
                         ids=[case[0] for case in STALE])
def test_message_of_another_round_is_never_committed(message):
    scenario = pid_scenario()
    jobs = scenario.expand()
    # Equal costs dispatch in index order, so the last job starts last.
    last = len(jobs) - 1
    with pool_scope() as pool:
        Runner(scenario, jobs=2).run()
        pool.channel.put(message(pool.rounds, last, jobs[last].job_id))
        report = Runner(scenario, jobs=2, retries=0, job_timeout=30.0).run()
    assert report.failures == []
    assert report.executed == len(jobs)
    assert all("forged" not in record and "result" in record
               for record in report.records.values())


# ------------------------------------------------------ no process left


def stop_server(tmp_path, mode):
    """Run on a ``run_jobs=2`` server, then stop it in ``mode``."""
    server = ScenarioServer(runs_root=tmp_path / "runs", run_jobs=2)
    server.start()
    try:
        with ScenarioClient(server.address) as client:
            if mode == "drain":
                job = client.submit(quick_scenario())
                assert client.watch(job["job_id"])["state"] == "done"
            else:
                job = client.submit(pid_scenario())
                wait_until(lambda: client.status(job["job_id"])["done"] >= 1)
            # The run's workers stay warm after it.
            assert multiprocessing.active_children()
    finally:
        server.stop(mode=mode)


#: Ways a pool's life ends, held as data: (id, run(tmp_path)).
ENDINGS = [
    ("server-stop-drain", lambda tmp_path: stop_server(tmp_path, "drain")),
    ("server-stop-cancel", lambda tmp_path: stop_server(tmp_path, "cancel")),
    ("runner-outside-a-server",
     lambda tmp_path: Runner(quick_scenario(), jobs=2).run()),
]


@pytest.mark.parametrize("run", [case[1] for case in ENDINGS],
                         ids=[case[0] for case in ENDINGS])
def test_no_process_outlives_the_pool(tmp_path, run):
    run(tmp_path)
    assert multiprocessing.active_children() == []
