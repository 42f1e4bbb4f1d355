"""Scenario service end-to-end tests: server, client, protocol contract.

Every test runs a real :class:`~repro.api.server.ScenarioServer` in-process
on a per-test Unix socket (TCP in one transport test) and talks to it
through :class:`~repro.api.client.ScenarioClient` — the same code paths
``cli serve``/``submit``/``watch`` use.
"""

import re
import threading
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
from repro.api.client import ScenarioClient, ServerError, parse_address
from repro.api.server import ScenarioServer


def tiny_scenario(name="svc", seed=3, **overrides):
    base = dict(
        name=name,
        benchmarks=("SASC",),
        lockers=(LockerSpec("assure"),),
        attacks=(AttackSpec("snapshot", rounds=4, time_budget=0.5),),
        samples=1,
        scale=0.15,
        seed=seed,
    )
    base.update(overrides)
    return Scenario(**base)


def metric_scenario(name="svc-metric", seed=3, vectors=4):
    return tiny_scenario(
        name=name, seed=seed, attacks=(),
        metrics=(MetricSpec("avalanche", {"vectors": vectors}),))


def strip_timing(record):
    record = dict(record)
    record.pop("elapsed_seconds", None)
    return record


def store_records(path):
    store = ResultsStore(path)
    return {job_id: strip_timing(store.load(job_id))
            for job_id in store.job_ids()}


@pytest.fixture
def server(tmp_path):
    instance = ScenarioServer(runs_root=tmp_path / "runs")
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    with ScenarioClient(server.address) as connected:
        yield connected


class TestRoundTrip:
    def test_submit_watch_report(self, server, client):
        scenario = tiny_scenario()
        submitted = client.submit(scenario)
        assert submitted["job_id"] == "job-0001"
        assert submitted["state"] == "queued"
        assert not submitted["deduplicated"]

        events = []
        final = client.watch(submitted["job_id"], on_event=events.append)
        assert final["state"] == "done"
        assert final["executed"] == final["total"] == 1
        assert final["failures"] == 0
        # One progress event per job, shaped like the Runner's hook data.
        assert len(events) == 1
        assert events[0]["done"] == 1 and events[0]["total"] == 1
        assert events[0]["kind"] == "attack"

        result = client.report(job_id=submitted["job_id"])
        assert scenario.name in result["report"]
        assert result["data"]  # machine-readable report came along

    def test_store_is_bit_identical_to_direct_run(self, server, client,
                                                  tmp_path):
        scenario = tiny_scenario()
        submitted = client.submit(scenario)
        final = client.wait(submitted["job_id"])
        assert final["state"] == "done"

        local = ResultsStore(tmp_path / "local")
        Runner(scenario, store=local).run()
        assert store_records(submitted["store"]) == store_records(local.root)

    def test_concurrent_in_process_runs_match_direct_runs(self, tmp_path):
        # Two worker threads, each running its scenario in-process
        # (run_jobs=1): overlapping runs must not affect each other's
        # records.
        scenarios = (tiny_scenario(), metric_scenario(vectors=64))
        instance = ScenarioServer(runs_root=tmp_path / "runs", workers=2)
        instance.start()
        try:
            with ScenarioClient(instance.address) as client:
                submitted = [client.submit(scenario)
                             for scenario in scenarios]
                for entry in submitted:
                    assert client.wait(entry["job_id"])["state"] == "done"
        finally:
            instance.stop()
        for index, (scenario, entry) in enumerate(zip(scenarios, submitted)):
            local = ResultsStore(tmp_path / f"local-{index}")
            Runner(scenario, store=local).run()
            assert store_records(entry["store"]) == \
                store_records(local.root)

    def test_resubmission_dedups_in_memory(self, server, client):
        scenario = tiny_scenario()
        first = client.submit(scenario)
        client.wait(first["job_id"])
        second = client.submit(scenario)
        assert second["deduplicated"]
        assert second["job_id"] == first["job_id"]
        # No second run: still exactly one job on the server.
        assert len(client.jobs()) == 1

    def test_resubmission_after_restart_resumes_with_zero_executed(
            self, tmp_path):
        scenario = tiny_scenario()
        runs_root = tmp_path / "runs"
        first_server = ScenarioServer(runs_root=runs_root)
        first_server.start()
        try:
            with ScenarioClient(first_server.address) as client:
                first = client.submit(scenario)
                assert client.wait(first["job_id"])["executed"] == 1
        finally:
            first_server.stop()

        # A fresh server has no in-memory dedup state, but the
        # per-fingerprint store path turns the rerun into a pure resume.
        second_server = ScenarioServer(runs_root=runs_root)
        second_server.start()
        try:
            with ScenarioClient(second_server.address) as client:
                second = client.submit(scenario)
                assert not second["deduplicated"]
                final = client.wait(second["job_id"])
                assert final["state"] == "done"
                assert final["executed"] == 0
                assert final["skipped"] == final["total"] == 1
        finally:
            second_server.stop()

    def test_tcp_transport(self, tmp_path):
        instance = ScenarioServer(runs_root=tmp_path / "runs",
                                  host="127.0.0.1", port=0)
        instance.start()
        try:
            assert instance.address.startswith("tcp:127.0.0.1:")
            kind, target = parse_address(instance.address)
            assert kind == "tcp" and target[1] == instance.port
            with ScenarioClient(instance.address) as client:
                assert client.ping()["protocol"] == 1
        finally:
            instance.stop()


class TestWarmPlanCache:
    def test_second_submission_compiles_no_new_plans(self, server, client):
        # The scenario seed feeds the locking rng, so a changed master seed
        # would change the locked netlist itself (and honestly need a new
        # plan).  The warm-cache property is about *identical netlists
        # across submissions*: a second, non-deduplicated submission that
        # simulates the same designs must add 0 plan-cache misses.
        first = client.submit(metric_scenario(name="warm-a", vectors=4))
        assert client.wait(first["job_id"])["state"] == "done"
        before = client.ping()["plan_cache"]

        # Different fingerprint (different name + metric options), same
        # locked design: a real second run, served entirely from cache.
        second = client.submit(metric_scenario(name="warm-b", vectors=8))
        assert not second["deduplicated"]
        final = client.wait(second["job_id"])
        assert final["state"] == "done" and final["executed"] == 1

        after = client.status(second["job_id"])["plan_cache"]
        assert after["misses"] == before["misses"]  # 0 new compilations
        assert after["hits"] > before["hits"]

    def test_plan_cache_stats_exposed_on_ping_and_status(self, server,
                                                         client):
        stats = client.ping()["plan_cache"]
        assert set(stats) == {"hits", "misses", "size", "maxsize"}
        submitted = client.submit(metric_scenario(name="warm-stats"))
        client.wait(submitted["job_id"])
        status = client.status(submitted["job_id"])
        assert set(status["plan_cache"]) == set(stats)


class TestErrorPaths:
    def test_invalid_scenario_carries_validation_message(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.submit({"name": "broken"})
        assert excinfo.value.code == "INVALID_SCENARIO"
        # The exact ScenarioError text, not a bare "invalid scenario".
        assert "at least one benchmark" in excinfo.value.message

    def test_unknown_job(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.status("job-9999")
        assert excinfo.value.code == "UNKNOWN_JOB"
        assert "job-9999" in excinfo.value.message

    @pytest.mark.parametrize("key, value", [("backend", "serial"),
                                            ("max_lanes", 65536)],
                             ids=["backend", "max_lanes"])
    def test_backend_key_is_an_invalid_scenario(self, client, key, value):
        scenario = tiny_scenario().to_dict()
        scenario[key] = value
        with pytest.raises(ServerError) as excinfo:
            client.submit(scenario)
        assert excinfo.value.code == "INVALID_SCENARIO"
        assert key in excinfo.value.message

    def test_unknown_op_and_malformed_request(self, server, client):
        with pytest.raises(ServerError) as excinfo:
            client.call("frobnicate")
        assert excinfo.value.code == "UNKNOWN_OP"
        with pytest.raises(ServerError) as excinfo:
            client.call("status", {})  # missing job_id
        assert excinfo.value.code == "INVALID_REQUEST"

    def test_report_on_missing_store(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.report(store="no/such/store")
        assert excinfo.value.code == "STORE_ERROR"

    def test_internal_error_reply_carries_an_id_not_a_traceback(
            self, server, client, monkeypatch, caplog):
        def broken_dispatch(request):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(server, "_dispatch", broken_dispatch)
        with caplog.at_level("ERROR", logger="repro.api.server"):
            with pytest.raises(ServerError) as excinfo:
                client.ping()
        assert excinfo.value.code == "INTERNAL"
        message = excinfo.value.message
        assert "Traceback" not in message and "handler bug" not in message
        match = re.fullmatch(r"internal error ([0-9a-f]{8}); see server log",
                             message)
        assert match is not None, message
        logged = [record for record in caplog.records
                  if match.group(1) in record.getMessage()]
        assert len(logged) == 1
        assert logged[0].exc_info[0] is RuntimeError
        assert "handler bug" in caplog.text


class TestCancelAndShutdown:
    def test_cancel_queued_job(self, server, client):
        # Worker 1 is busy with the first job; the second is deterministic
        # to cancel while still queued.
        blocker = client.submit(tiny_scenario(name="blocker", samples=2))
        victim = client.submit(tiny_scenario(name="victim", seed=11))
        cancelled = client.cancel(victim["job_id"])
        assert cancelled["state"] == "cancelled"
        final = client.wait(victim["job_id"])
        assert final["state"] == "cancelled"
        # The blocker is unaffected.
        assert client.wait(blocker["job_id"])["state"] == "done"

    def test_cancel_terminal_job_is_a_no_op(self, server, client):
        submitted = client.submit(tiny_scenario())
        client.wait(submitted["job_id"])
        result = client.cancel(submitted["job_id"])
        assert result["state"] == "done"
        assert result["changed"] is False

    def test_second_client_queries_while_job_in_flight(self, server, client):
        # The acceptance gate: a concurrent second client can status/list
        # mid-run.  With one worker the second submission is reliably
        # non-terminal while the first drains.
        running = client.submit(tiny_scenario(name="busy", samples=2))
        queued = client.submit(tiny_scenario(name="waiting", seed=17))
        with ScenarioClient(server.address) as other:
            status = other.status(queued["job_id"])
            assert status["state"] in ("queued", "running", "done")
            assert {job["job_id"] for job in other.jobs()} == {
                running["job_id"], queued["job_id"]}
        assert client.wait(queued["job_id"])["state"] == "done"

    def test_shutdown_rejects_new_submissions(self, tmp_path):
        instance = ScenarioServer(runs_root=tmp_path / "runs")
        instance.start()
        try:
            with ScenarioClient(instance.address) as client:
                result = client.shutdown(mode="drain")
                assert result["shutting_down"]
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    try:
                        client.submit(tiny_scenario())
                    except ServerError as exc:
                        assert exc.code == "SHUTTING_DOWN"
                        break
                    except ConnectionError:
                        break  # listener already gone: also a valid refusal
                    time.sleep(0.05)
                else:
                    pytest.fail("server kept accepting submissions after "
                                "shutdown")
        finally:
            instance.stop()

    def test_drain_shutdown_finishes_queued_work(self, tmp_path):
        instance = ScenarioServer(runs_root=tmp_path / "runs")
        instance.start()
        scenario = tiny_scenario(name="drained")
        try:
            with ScenarioClient(instance.address) as client:
                submitted = client.submit(scenario)
                client.shutdown(mode="drain")
            instance.serve_forever()  # returns once workers drained
        finally:
            instance.stop()
        # The queued run completed before the server exited.
        records = store_records(submitted["store"])
        assert len(records) == 1

    def test_watch_finished_job_replays_history(self, server, client):
        submitted = client.submit(tiny_scenario())
        client.wait(submitted["job_id"])
        events = []
        final = client.watch(submitted["job_id"], on_event=events.append)
        assert final["state"] == "done"
        assert len(events) == 1  # full replay, then immediate return


class TestServerConstruction:
    def test_rejects_bad_configuration(self, tmp_path):
        with pytest.raises(ValueError):
            ScenarioServer(runs_root=tmp_path, workers=0)
        with pytest.raises(ValueError):
            ScenarioServer(runs_root=tmp_path, run_jobs=0)
        with pytest.raises(ValueError):
            ScenarioServer(runs_root=tmp_path, socket_path=tmp_path / "s",
                           host="127.0.0.1", port=0)
        with pytest.raises(ValueError):
            ScenarioServer(runs_root=tmp_path, host="127.0.0.1")  # no port

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        runs_root = tmp_path / "runs"
        runs_root.mkdir()
        (runs_root / "server.sock").touch()  # dead server's leftover
        instance = ScenarioServer(runs_root=runs_root)
        instance.start()
        try:
            with ScenarioClient(instance.address) as client:
                assert client.ping()["protocol"] == 1
        finally:
            instance.stop()

    def test_second_server_on_live_socket_refuses(self, server):
        duplicate = ScenarioServer(runs_root=server.runs_root)
        with pytest.raises(OSError, match="already listening"):
            duplicate.start()
