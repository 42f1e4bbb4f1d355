"""Tests of the benchmark harness itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(PERFBENCH / "run.py"),
                           *arguments], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_passes_its_output_check(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--size", "tiny", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0


def test_traced_run_reports_every_per_layer_metric_and_equal_digests():
    done = _run("--workload", "attack-relock", "--seed", "3", "--seconds",
                "1", "--size", "tiny", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    names = [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["metrics"]["attacks.relock.round_calls"]["value"] > 0
    digests = done.stdout.split("record digests: untraced ")[1].split()
    assert digests[0].rstrip(",") == digests[2]


def _child_digest(tmp_path: Path, name: str, seed: int, workload: str,
                  counts: str) -> str:
    out = tmp_path / f"{name}.json"
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--size", "tiny", "--counts", counts,
                    "--t0", repr(time.monotonic()),
                    "--work", str(tmp_path / name), "--out", str(out)],
                   cwd=ROOT, check=True, timeout=170)
    return json.loads(out.read_text())["digest"]


@pytest.mark.parametrize("workload,counts", [("metric-sim", "1"),
                                             ("service-matrix", "2,2")])
def test_two_runs_at_one_seed_give_equal_digests(tmp_path, workload,
                                                 counts):
    first = _child_digest(tmp_path, "a", 5, workload, counts)
    second = _child_digest(tmp_path, "b", 5, workload, counts)
    other = _child_digest(tmp_path, "c", 6, workload, counts)
    assert first == second
    assert first != other


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "attack-relock", "--seed", "1", "--seconds",
                "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("n,percentile", [(20, 50), (30, 66), (100, 90),
                                          (274, 96)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
        n, percentile):
    values = [float(i) for i in range(1, n + 1)][::-1]
    value, got_percentile, samples = check.tail(values)
    assert (got_percentile, samples) == (percentile, n)
    assert sum(1 for v in values if v > value) == check.TAIL_BEYOND


def test_tail_below_twenty_samples_is_the_median():
    values = [5.0, 1.0, 3.0, 4.0, 2.0] * 3
    assert check.tail(values) == (3.0, 50, 15)


def test_tail_with_too_few_samples_is_the_median():
    assert check.tail([1.0, 2.0, 3.0]) == (2.0, 50, 3)


def test_seed_changes_the_scenarios_but_not_their_shape():
    for workload in workloads.WORKLOADS:
        for index in range(12):
            first = workloads.scenario(workload, 1, index, client=index % 2)
            second = workloads.scenario(workload, 2, index, client=index % 2)
            assert first["seed"] != second["seed"]
            shape = {key: value for key, value in first.items()
                     if key != "seed"}
            assert shape == {key: value for key, value in second.items()
                             if key != "seed"}
            assert first == workloads.scenario(workload, 1, index,
                                               client=index % 2)


def test_work_is_fixed_by_the_requested_seconds():
    assert workloads.work("attack-relock", 30) == "2"
    assert workloads.work("attack-relock", 0.1) == "1"
    clients = workloads.work("service-matrix", 30).split(",")
    assert len(clients) == workloads.SERVICE_CLIENTS
    assert len(set(clients)) == 1


def test_self_time_subtracts_child_spans_and_totals_skip_nesting():
    rows = [
        [1, "api.runner.run", 0.0, 10.0, 0],
        [2, "rtlir.copy", 1.0, 3.0, 1],
        [3, "eval.report", 4.0, 8.0, 1],
        [4, "eval.report", 5.0, 6.0, 3],
    ]
    summary = spans.summarise(rows)
    assert summary["api.runner.run"] == {"calls": 1, "total": 10.0,
                                         "self": 4.0}
    assert summary["rtlir.copy"]["self"] == 2.0
    assert summary["eval.report"] == {"calls": 2, "total": 4.0,
                                      "self": 4.0}
    shares = spans.layer_shares(summary)
    assert shares["api"] == pytest.approx(0.4)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_install_wraps_public_functions_and_uninstall_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.sim
    from repro.rtlir.design import Design

    copy, compare = Design.__dict__["copy"], repro.sim.differing_lanes
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert Design.__dict__["copy"] is not copy
        assert repro.sim.differing_lanes is not compare
    finally:
        tracer.uninstall()
    assert Design.__dict__["copy"] is copy
    assert repro.sim.differing_lanes is compare


def test_tracer_records_nested_spans_with_their_parent():
    tracer = spans.Tracer()

    def inner():
        return (np.zeros((3, 2)), None)

    def outer():
        return traced_inner()

    traced_inner = tracer.wrap("attacks.extract", inner, counter="rows")
    tracer.wrap("attacks.relock.build", outer)()
    rows = tracer.export()["spans"]
    assert [row[1] for row in rows] == ["attacks.relock.build",
                                        "attacks.extract"]
    assert rows[1][4] == rows[0][0]
    assert tracer.counts["attacks.extract"] == 3


def _attack_record(**changes):
    record = {"job_id": "j", "kind": "attack", "attack": "snapshot",
              "key_width": 2,
              "result": {"kpa": 50.0, "predicted_key": [0, 1],
                         "correct_key": [1, 1], "functional_kpa": 75.0}}
    record["result"].update(changes)
    return record


def test_record_checks_catch_broken_attack_outputs():
    scenario = {"attacks": [{"name": "snapshot", "functional_vectors": 4}]}
    assert check.check_record(_attack_record(), scenario) == []
    assert check.check_record(_attack_record(kpa=101.0), scenario)
    assert check.check_record(_attack_record(predicted_key=[0]), scenario)
    assert check.check_record(_attack_record(functional_kpa=None), scenario)
    no_vectors = {"attacks": [{"name": "snapshot"}]}
    assert check.check_record(_attack_record(functional_kpa=None),
                              no_vectors) == []


def test_record_checks_catch_metrics_out_of_bounds():
    record = {"job_id": "j", "kind": "metric", "metric": "avalanche",
              "key_width": 2,
              "result": {"min": 0.1, "mean": 0.2, "max": 0.3,
                         "per_bit": [0.1, 0.3]}}
    assert check.check_record(record, {}) == []
    record["result"]["mean"] = 0.5
    assert check.check_record(record, {})


def test_run_checks_require_done_and_complete_counts():
    good = {"state": "done", "executed": 2, "skipped": 0, "total": 2,
            "failures": 0, "quarantined": 0}
    assert check.check_run(good) == []
    assert check.check_run({**good, "state": "failed"})
    assert check.check_run({**good, "executed": 1})
    assert check.check_run({**good, "quarantined": 1})


def test_digest_ignores_elapsed_seconds_only():
    record = {"job_id": "j", "elapsed_seconds": 1.0, "result": {"kpa": 1}}
    same = dict(record, elapsed_seconds=2.0)
    changed = dict(record, result={"kpa": 2})
    digest = check.record_digest([("k", record)])
    assert check.record_digest([("k", same)]) == digest
    assert check.record_digest([("k", changed)]) != digest
