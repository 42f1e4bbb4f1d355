"""Integration tests for the repro-lock command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.rtlir import Design

DESIGN_TEXT = """
module cli_core (
  input clk,
  input [7:0] a,
  input [7:0] b,
  input [7:0] c,
  output [7:0] y,
  output reg [7:0] q
);
  wire [7:0] t0 = a + b;
  wire [7:0] t1 = t0 + c;
  wire [7:0] t2 = t1 * a;
  wire [7:0] t3 = t2 - b;
  wire [7:0] t4 = t3 ^ c;
  wire [7:0] t5 = t4 << 1;
  assign y = t5 | a;
  always @(posedge clk) begin
    if (t0 > t1)
      q <= t2;
    else
      q <= t3;
  end
endmodule
"""


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "cli_core.v"
    path.write_text(DESIGN_TEXT)
    return path


class TestAnalyze:
    def test_analyze_prints_report(self, design_file, capsys):
        assert main(["analyze", str(design_file)]) == 0
        out = capsys.readouterr().out
        assert "Design report: cli_core" in out
        assert "Operation distribution table" in out

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", str(tmp_path / "nope.v")])


class TestLockAndAttack:
    def test_lock_writes_artifacts(self, design_file, tmp_path, capsys):
        output = tmp_path / "locked.v"
        key_file = tmp_path / "key.json"
        code = main(["lock", str(design_file), "-a", "era",
                     "--budget", "0.75", "-o", str(output),
                     "--key-file", str(key_file), "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Locked cli_core with era" in out
        assert output.exists() and key_file.exists()

        metadata = json.loads(key_file.read_text())
        assert metadata["key_width"] == len(metadata["bits"])
        locked = Design.from_verilog(output.read_text())
        port = locked.top.find_port(metadata["key_port"])
        assert port is not None
        assert port.width.width() == metadata["key_width"]

    def test_lock_with_absolute_key_bits(self, design_file, tmp_path, capsys):
        output = tmp_path / "locked.v"
        code = main(["lock", str(design_file), "-a", "assure",
                     "--key-bits", "3", "-o", str(output)])
        assert code == 0
        assert "3/3 key bits" in capsys.readouterr().out

    def test_attack_roundtrip(self, design_file, tmp_path, capsys):
        output = tmp_path / "locked.v"
        key_file = tmp_path / "key.json"
        main(["lock", str(design_file), "-a", "assure", "-o", str(output),
              "--key-file", str(key_file), "--seed", "2"])
        capsys.readouterr()

        code = main(["attack", str(output), "--key-file", str(key_file),
                     "--attack", "majority", "--rounds", "8", "--show-key",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "KPA" in out
        assert "Predicted key" in out

    def test_attack_without_key_file_fails(self, design_file, capsys):
        assert main(["attack", str(design_file)]) == 1
        assert "key-file" in capsys.readouterr().err


class TestBenchAndEvaluate:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "N_2046" in out and "MD5" in out

    def test_bench_emit_design(self, tmp_path, capsys):
        output = tmp_path / "fir.v"
        assert main(["bench", "FIR", "--scale", "0.2", "-o", str(output)]) == 0
        assert output.exists()
        design = Design.from_verilog(output.read_text())
        assert design.num_operations() > 0

    def test_bench_print_to_stdout(self, capsys):
        assert main(["bench", "N_1023", "--scale", "0.01"]) == 0
        assert "module N_1023" in capsys.readouterr().out

    def test_evaluate_small_run(self, tmp_path, capsys):
        report_file = tmp_path / "report.txt"
        code = main(["evaluate", "--benchmarks", "SASC",
                     "--algorithms", "assure", "era",
                     "--scale", "0.15", "--samples", "1", "--rounds", "5",
                     "--time-budget", "1.0", "-o", str(report_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Average KPA" in out
        assert report_file.exists()


class TestRegistryValidation:
    def test_unknown_lock_algorithm_rejected_at_parse_time(self, design_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["lock", str(design_file), "-a", "warlock"])
        assert excinfo.value.code == 2  # argparse usage error

    def test_unknown_attack_rejected_at_parse_time(self, design_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["attack", str(design_file), "--attack", "voodoo"])
        assert excinfo.value.code == 2

    def test_unknown_evaluate_algorithm_rejected_at_parse_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--algorithms", "assure", "warlock"])
        assert excinfo.value.code == 2

    def test_help_lists_registered_names(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert "run" in parser.format_help()
        # The lock/attack subparser help enumerates the registered choices.
        sub = dict(parser._subparsers._group_actions[0].choices.items())
        lock_help = sub["lock"].format_help()
        assert "era" in lock_help and "assure-random" in lock_help
        assert "pair-asymmetry" in sub["attack"].format_help()

    def test_registry_addition_appears_in_choices(self):
        from repro.api import LOCKERS, register_locker
        from repro.cli import build_parser

        @register_locker("cli-test-locker")
        def factory(rng, pair_table=None, track_metrics=False, **_):
            raise NotImplementedError

        try:
            parser = build_parser()
            sub = dict(parser._subparsers._group_actions[0].choices.items())
            assert "cli-test-locker" in sub["lock"].format_help()
        finally:
            LOCKERS.unregister("cli-test-locker")


class TestRunScenario:
    EVAL_ARGS = ["--benchmarks", "SASC", "--algorithms", "assure", "era",
                 "--scale", "0.15", "--samples", "1", "--rounds", "4",
                 "--time-budget", "0.5", "--seed", "3"]

    @staticmethod
    def _records(store_dir):
        records = {}
        for path in sorted((store_dir / "jobs").glob("*.json")):
            record = json.loads(path.read_text())
            record.pop("elapsed_seconds", None)
            records[path.stem] = record
        return records

    def test_run_reproduces_evaluate_bit_identically(self, tmp_path, capsys):
        scenario_file = tmp_path / "scenario.json"
        eval_store = tmp_path / "eval_store"
        assert main(["evaluate", *self.EVAL_ARGS,
                     "--store", str(eval_store),
                     "--emit-scenario", str(scenario_file)]) == 0
        eval_out = capsys.readouterr().out
        assert "Average KPA" in eval_out

        serial_store = tmp_path / "serial_store"
        assert main(["run", str(scenario_file), "--store",
                     str(serial_store), "-q"]) == 0
        parallel_store = tmp_path / "parallel_store"
        assert main(["run", str(scenario_file), "--store",
                     str(parallel_store), "--jobs", "2", "-q"]) == 0
        capsys.readouterr()

        reference = self._records(eval_store)
        assert reference, "evaluate must write job records"
        assert self._records(serial_store) == reference
        assert self._records(parallel_store) == reference

    def test_rerun_executes_zero_jobs(self, tmp_path, capsys):
        store = tmp_path / "store"
        scenario_file = tmp_path / "scenario.json"
        assert main(["evaluate", *self.EVAL_ARGS,
                     "--emit-scenario", str(scenario_file)]) == 0
        capsys.readouterr()
        assert main(["run", str(scenario_file), "--store", str(store),
                     "-q"]) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 skipped" in first
        assert main(["run", str(scenario_file), "--store", str(store),
                     "-q"]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 skipped" in second
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["total_records"] == 2

    def test_run_smoke_scenario_with_metrics(self, tmp_path, capsys):
        from pathlib import Path

        smoke = Path(__file__).resolve().parents[2] / "examples" / \
            "scenario_smoke.json"
        store = tmp_path / "smoke_store"
        assert main(["run", str(smoke), "--store", str(store),
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Average KPA" in out
        assert "Metrics recorded: avalanche, corruption" in out
        assert (store / "manifest.json").exists()

    def test_run_rejects_invalid_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "benchmarks": ["SASC"], '
                       '"lockers": ["warlock"], "attacks": ["snapshot"]}')
        assert main(["run", str(bad)]) == 1
        assert "unknown locking algorithm" in capsys.readouterr().err

    def test_run_rejects_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_emitted_scenario_fingerprint_is_pinned(self, tmp_path, capsys):
        """``evaluate`` builds the same scenario (and job ids) as always."""
        from repro.api import Scenario

        scenario_file = tmp_path / "scenario.json"
        assert main(["evaluate", *self.EVAL_ARGS,
                     "--emit-scenario", str(scenario_file)]) == 0
        capsys.readouterr()
        scenario = Scenario.from_file(scenario_file)
        assert scenario.fingerprint() == "c0ab999f"
        data = json.loads(scenario_file.read_text())
        assert [locker["key_budget_fraction"]
                for locker in data["lockers"]] == [0.75, 0.75]
        (attack,) = data["attacks"]
        assert (attack["name"], attack["feature_set"],
                attack["functional_vectors"]) == ("snapshot", "pair", 0)

    def test_fig6_rows_follow_the_scenario_on_every_path(self, tmp_path,
                                                          capsys):
        """run (serial and --jobs 2), evaluate and report: one row order."""
        def fig6_rows(out):
            block = out[out.index("(Fig. 6a)"):out.index("(Fig. 6b)")]
            return [line.split(" |")[0].strip()
                    for line in block.splitlines()[3:] if " | " in line]

        scenario_file = tmp_path / "scenario.json"
        store = tmp_path / "eval_store"
        assert main(["evaluate", "--benchmarks", "I2C_SL", "FIR", "SASC",
                     "--algorithms", "era", "assure", "--scale", "0.15",
                     "--samples", "1", "--rounds", "3", "--time-budget", "1",
                     "--store", str(store),
                     "--emit-scenario", str(scenario_file)]) == 0
        outputs = {"evaluate": capsys.readouterr().out}
        for label, extra in (("run", []), ("run -j2", ["--jobs", "2"])):
            assert main(["run", str(scenario_file), "--store",
                         str(tmp_path / label), "-q", *extra]) == 0
            outputs[label] = capsys.readouterr().out
        assert main(["report", str(store)]) == 0
        outputs["report"] = capsys.readouterr().out
        rows = {label: fig6_rows(out) for label, out in outputs.items()}
        assert rows == {label: ["I2C_SL", "FIR", "SASC"] for label in rows}

    @pytest.mark.parametrize("argv", [
        ["run", "{scenario}", "--retries", "-1"],
        ["run", "{scenario}", "--job-timeout", "0"],
        ["evaluate", "--benchmarks", "SASC", "--jobs", "0"],
    ], ids=["retries", "job-timeout", "evaluate-jobs"])
    def test_bad_runner_flags_fail_cleanly(self, tmp_path, capsys, argv):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(TestReport.SINGLE_SCENARIO)
        argv = [arg.format(scenario=scenario_file) for arg in argv]
        assert main([*argv, "--store", str(tmp_path / "store")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "store").exists()


class TestReport:
    """``repro-lock report <store>``: figures from disk, no re-simulation."""

    @staticmethod
    def _run_scenario(tmp_path, capsys, scenario_text, store_name):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(scenario_text)
        store = tmp_path / store_name
        assert main(["run", str(scenario_file), "--store", str(store),
                     "-q"]) == 0
        capsys.readouterr()
        return store

    MATRIX_SCENARIO = json.dumps({
        "name": "report-matrix",
        "benchmarks": ["SASC"],
        "lockers": [{"algorithm": "era",
                     "key_budget_fractions": [0.25, 0.75]}],
        "attacks": [{"name": "snapshot", "rounds": 3,
                     "time_budgets": [0.5, 1.0]}],
        "samples": 1,
        "scale": 0.15,
        "seeds": [3, 5],
    })

    SINGLE_SCENARIO = json.dumps({
        "name": "report-single",
        "benchmarks": ["SASC"],
        "lockers": ["era"],
        "attacks": [{"name": "snapshot", "rounds": 3, "time_budget": 0.5}],
        "samples": 1,
        "scale": 0.15,
        "seed": 3,
    })

    def test_report_renders_matrix_store_without_rerunning(self, tmp_path,
                                                           capsys):
        store = self._run_scenario(tmp_path, capsys, self.MATRIX_SCENARIO,
                                   "matrix_store")
        jobs_before = {path: path.stat().st_mtime_ns
                       for path in (store / "jobs").glob("*.json")}
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Records: 8/8 (COMPLETE)" in out
        assert "Mean KPA (%) per seed" in out
        assert "Mean KPA (%) per key_budget_fraction" in out
        assert "Mean KPA (%) per time_budget" in out
        assert "Measured wall time per benchmark x locker" in out
        # Nothing was re-simulated: no record file was touched.
        assert {path: path.stat().st_mtime_ns
                for path in (store / "jobs").glob("*.json")} == jobs_before

    def test_report_single_value_store_has_no_sweep_tables(self, tmp_path,
                                                           capsys):
        store = self._run_scenario(tmp_path, capsys, self.SINGLE_SCENARIO,
                                   "single_store")
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Average KPA" in out
        assert "scenario matrix axis" not in out

    def test_report_degrades_gracefully_on_partial_store(self, tmp_path,
                                                         capsys):
        """A store whose run was interrupted (missing record, no manifest)
        still reports over what it has, flagged as PARTIAL."""
        store = self._run_scenario(tmp_path, capsys, self.MATRIX_SCENARIO,
                                   "partial_store")
        records = sorted((store / "jobs").glob("*.json"))
        records[0].unlink()
        (store / "manifest.json").unlink()
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Records: 7/8 (PARTIAL" in out
        assert "no manifest" in out
        assert "Average KPA" in out

    def test_report_writes_output_file(self, tmp_path, capsys):
        store = self._run_scenario(tmp_path, capsys, self.SINGLE_SCENARIO,
                                   "out_store")
        output = tmp_path / "report.txt"
        assert main(["report", str(store), "-o", str(output)]) == 0
        capsys.readouterr()
        assert "Average KPA" in output.read_text()

    def test_report_on_missing_store_fails_clearly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_report_on_non_store_directory_fails_clearly(self, tmp_path,
                                                         capsys):
        (tmp_path / "not_a_store").mkdir()
        assert main(["report", str(tmp_path / "not_a_store")]) == 1
        assert "not a results store" in capsys.readouterr().err


class TestReportJson:
    """``repro-lock report --json``: machine-readable Fig. 6 + sweep data."""

    def test_json_round_trips_the_store_aggregates(self, tmp_path, capsys):
        store = TestReport._run_scenario(tmp_path, capsys,
                                         TestReport.MATRIX_SCENARIO,
                                         "json_store")
        json_path = tmp_path / "report.json"
        assert main(["report", str(store), "--json", str(json_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())

        # Round trip: the JSON numbers equal the figure builders' output.
        from repro.api import ResultsStore
        from repro.api.store import kpa_samples_from_records
        from repro.eval import (axis_sweeps_from_records,
                                kpa_tables_from_samples)

        per_benchmark, average = kpa_tables_from_samples(
            kpa_samples_from_records(ResultsStore(store).records()))
        assert payload["figure6"]["average"] == average
        assert payload["figure6"]["per_benchmark"] == per_benchmark

        sweeps = {s.axis: s for s in axis_sweeps_from_records(
            ResultsStore(store).records())}
        assert {entry["axis"] for entry in payload["axis_sweeps"]} \
            == set(sweeps)
        for entry in payload["axis_sweeps"]:
            sweep = sweeps[entry["axis"]]
            assert [row["value"] for row in entry["rows"]] == sweep.values
            for row in entry["rows"]:
                assert row["kpa"] == sweep.kpa[row["value"]]
                assert row["ci95"] == sweep.kpa_ci[row["value"]]
                assert row["counts"] == sweep.counts[row["value"]]

        # Scenario identity and completion survive the round trip too.
        assert payload["completion"]["complete"] is True
        from repro.api import Scenario

        restored = Scenario.from_dict(payload["scenario"], validate=False)
        assert restored.fingerprint() == payload["scenario_fingerprint"]
        assert payload["timing"], "manifest timing pairs missing"
        for entry in payload["benchmark_axis_sweeps"]:
            assert entry["benchmark"] == "SASC"

    def test_json_on_partial_store_degrades_gracefully(self, tmp_path,
                                                       capsys):
        store = TestReport._run_scenario(tmp_path, capsys,
                                         TestReport.SINGLE_SCENARIO,
                                         "json_partial")
        (store / "manifest.json").unlink()
        json_path = tmp_path / "partial.json"
        assert main(["report", str(store), "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["timing"] == []
        assert payload["figure6"]["average"]
        assert payload["axis_sweeps"] == []


#: A two-job scenario (one ASSURE and one ERA attack) for the store states.
DRY_RUN_SCENARIO = json.dumps({
    "name": "dry-run",
    "benchmarks": ["SASC"],
    "lockers": ["assure", "era"],
    "attacks": [{"name": "snapshot", "rounds": 3, "time_budget": 0.5}],
    "samples": 1,
    "scale": 0.15,
    "seed": 3,
})

#: Every attempt of the ERA job fails transiently.
POISON_ERA = json.dumps({"seed": 1, "faults": [
    {"kind": "transient", "rate": 1.0, "match": "__era__"}]})

POISONED = ("scenario", "--retries", "1", "--fault-plan", "poison")

#: Store states as data: (id, the runs that build the store, the flags of
#: the dry run and of the real run that follows it, the jobs both report).
#: A building run is ``(scenario file, *flags)``; "truncate" cuts a record.
STORE_STATES = [
    ("fresh", (), (), 2),
    ("complete", (("scenario",),), (), 0),
    ("poisoned", (POISONED,), (), 0),
    ("poisoned-retries-raised", (POISONED,), ("--retries", "3"), 1),
    ("foreign-no-resume", (("foreign",),), ("--no-resume",), 2),
    ("truncated-record", (("scenario",), "truncate"), (), 1),
]


def _store_state(tmp_path, capsys, setup):
    """Write the input files, build a store from ``setup``; return both."""
    files = {"scenario": DRY_RUN_SCENARIO, "poison": POISON_ERA,
             "foreign": TestReport.SINGLE_SCENARIO}
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    store = tmp_path / "store"
    for step in setup:
        if step == "truncate":
            record = sorted((store / "jobs").glob("*.json"))[0]
            record.write_text(record.read_text()[:20])
            continue
        main(["run", *(str(paths.get(arg, arg)) for arg in step),
              "--store", str(store), "-q"])
    capsys.readouterr()
    return paths, store


def _tree(root):
    """Every path under ``root`` with its bytes; None for an absent root."""
    if not root.exists():
        return None
    return {str(path.relative_to(root)):
            path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


class TestDryRun:
    """``repro-lock run --dry-run``: the jobs a real run would execute."""

    def test_dry_run_executes_nothing(self, tmp_path, capsys):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(TestReport.SINGLE_SCENARIO)
        store = tmp_path / "dry_store"
        assert main(["run", str(scenario_file), "--store", str(store),
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "Dry run — nothing was executed" in out
        assert "1 to execute" in out
        assert not store.exists()

    @pytest.mark.parametrize("setup, flags, executes",
                             [state[1:] for state in STORE_STATES],
                             ids=[state[0] for state in STORE_STATES])
    def test_dry_run_matches_the_real_run(self, tmp_path, capsys, setup,
                                          flags, executes):
        paths, store = _store_state(tmp_path, capsys, setup)
        command = ["run", str(paths["scenario"]), "--store", str(store),
                   *flags]
        before = _tree(store)
        assert main([*command, "--dry-run"]) == 0
        assert _tree(store) == before
        planned = re.search(r"(\d+) to execute", capsys.readouterr().out)
        main([*command, "-q"])
        executed = re.search(r"(\d+) executed", capsys.readouterr().out)
        assert int(planned.group(1)) == int(executed.group(1)) == executes

    def test_dry_run_rejects_a_foreign_scenarios_store(self, tmp_path,
                                                       capsys):
        """Same identity check as the real run, with the same error."""
        paths, store = _store_state(tmp_path, capsys, (("foreign",),))
        command = ["run", str(paths["scenario"]), "--store", str(store)]
        before = _tree(store)
        assert main([*command, "--dry-run"]) == 1
        error = capsys.readouterr().err
        assert "different scenario" in error
        assert main([*command, "-q"]) == 1
        assert capsys.readouterr().err == error
        assert _tree(store) == before


SERVICE_SCENARIO = json.dumps({
    "name": "cli-svc",
    "benchmarks": ["SASC"],
    "lockers": [{"algorithm": "era", "key_budget_fraction": 0.75}],
    "attacks": [{"name": "snapshot", "rounds": 4, "time_budget": 0.5}],
    "samples": 1,
    "scale": 0.15,
    "seed": 3,
})


#: Runs whose stdout reader is gone before the first write: (id, extra
#: flags, the exit status the run returns with stdout open).
CLOSED_STDOUT_RUNS = [
    ("clean", (), 0),
    ("quarantined", ("--retries", "1", "--fault-plan", "poison"), 1),
]


@pytest.mark.parametrize("flags, status",
                         [run[1:] for run in CLOSED_STDOUT_RUNS],
                         ids=[run[0] for run in CLOSED_STDOUT_RUNS])
def test_closed_stdout_keeps_the_exit_status(tmp_path, capsys, flags,
                                             status):
    """``repro-lock run ... | head -1``: no traceback, the run's own status."""
    import os
    import subprocess
    import sys

    paths, store = _store_state(tmp_path, capsys, ())
    src_root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        process = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run",
             str(paths["scenario"]), "--store", str(store), "-q",
             *(str(paths.get(flag, flag)) for flag in flags)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert process.returncode == status, process.stderr
    assert "Traceback" not in process.stderr
    assert len(list((store / "jobs").glob("*.json"))) == 2 - status


class TestServiceCommands:
    """`submit`/`status`/`watch`/`report --remote` against a live server."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.api.server import ScenarioServer

        instance = ScenarioServer(runs_root=tmp_path / "runs")
        instance.start()
        yield instance
        instance.stop()

    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(SERVICE_SCENARIO)
        return path

    def test_submit_watch_roundtrip(self, server, scenario_file, capsys):
        code = main(["submit", str(scenario_file),
                     "--socket", server.address, "--watch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "job-0001: queued" in out
        assert "done — 1 executed" in out

    def test_resubmission_is_deduplicated(self, server, scenario_file,
                                          capsys):
        assert main(["submit", str(scenario_file),
                     "--socket", server.address, "--watch", "-q"]) == 0
        capsys.readouterr()
        assert main(["submit", str(scenario_file),
                     "--socket", server.address]) == 0
        assert "already known" in capsys.readouterr().out

    def test_status_summary_and_job(self, server, scenario_file, capsys):
        assert main(["submit", str(scenario_file),
                     "--socket", server.address, "--watch", "-q"]) == 0
        capsys.readouterr()
        assert main(["status", "--socket", server.address]) == 0
        out = capsys.readouterr().out
        assert "plan cache:" in out
        assert "done=1" in out
        assert main(["status", "job-0001", "--socket", server.address]) == 0
        assert "done" in capsys.readouterr().out

    def test_watch_finished_job(self, server, scenario_file, capsys):
        assert main(["submit", str(scenario_file),
                     "--socket", server.address, "--watch", "-q"]) == 0
        capsys.readouterr()
        assert main(["watch", "job-0001", "--socket", server.address]) == 0
        out = capsys.readouterr().out
        assert "[1/1]" in out  # replayed history
        assert "done" in out

    def test_report_remote_by_job_and_store(self, server, scenario_file,
                                            tmp_path, capsys):
        assert main(["submit", str(scenario_file),
                     "--socket", server.address, "--watch", "-q"]) == 0
        capsys.readouterr()
        json_out = tmp_path / "report.json"
        assert main(["report", "job-0001", "--remote", server.address,
                     "--json", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "cli-svc" in out
        assert json.loads(json_out.read_text())
        from repro.api import Scenario

        fingerprint = Scenario.from_dict(
            json.loads(SERVICE_SCENARIO)).fingerprint()
        store = str(server.runs_root / f"cli-svc-{fingerprint}")
        assert main(["report", store, "--remote", server.address]) == 0
        assert "cli-svc" in capsys.readouterr().out

    def test_submit_without_server_fails_cleanly(self, tmp_path,
                                                 scenario_file, capsys):
        code = main(["submit", str(scenario_file),
                     "--socket", str(tmp_path / "absent.sock")])
        assert code == 1
        assert "no scenario server" in capsys.readouterr().err

    def test_invalid_scenario_surfaces_code_and_cause(self, server, tmp_path,
                                                      capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "bad"}')
        code = main(["submit", str(bad), "--socket", server.address])
        assert code == 1
        err = capsys.readouterr().err
        assert "INVALID_SCENARIO" in err
        assert "at least one benchmark" in err

    def test_unknown_job_errors(self, server, capsys):
        assert main(["status", "job-9999",
                     "--socket", server.address]) == 1
        assert "UNKNOWN_JOB" in capsys.readouterr().err


class TestServeCommand:
    """`cli serve` as a real daemon process (the CI service job's shape)."""

    def test_serve_submit_sigterm_roundtrip(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time as time_module

        from repro.api.client import ScenarioClient

        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(SERVICE_SCENARIO)
        runs_root = tmp_path / "runs"
        ready_file = tmp_path / "ready.json"

        src_root = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--runs-root", str(runs_root), "--ready-file", str(ready_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            deadline = time_module.time() + 60.0
            while time_module.time() < deadline and not ready_file.exists():
                assert process.poll() is None, process.communicate()[1]
                time_module.sleep(0.05)
            address = json.loads(ready_file.read_text())["address"]
            with ScenarioClient(address) as client:
                submitted = client.submit(scenario_path)
                final = client.watch(submitted["job_id"])
                assert final["state"] == "done"
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
