"""Scenario dataclass tree: validation, JSON round-trips, expansion."""

import json

import pytest

from repro.api import (
    AttackSpec,
    JobSpec,
    LockerSpec,
    MetricSpec,
    Scenario,
    ScenarioError,
)


def small_scenario(**overrides):
    base = dict(
        name="unit",
        benchmarks=("SASC", "FIR"),
        lockers=(LockerSpec("assure"), LockerSpec("era", 0.5)),
        attacks=(AttackSpec("snapshot", rounds=5, time_budget=1.0),),
        metrics=(MetricSpec("avalanche", {"vectors": 4}),),
        samples=2,
        scale=0.15,
        seed=9,
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidation:
    def test_valid_scenario_passes(self):
        small_scenario().validate()

    def test_requires_benchmarks_and_lockers(self):
        with pytest.raises(ScenarioError):
            small_scenario(benchmarks=())
        with pytest.raises(ScenarioError):
            small_scenario(lockers=())

    def test_requires_attack_or_metric(self):
        with pytest.raises(ScenarioError):
            small_scenario(attacks=(), metrics=())
        # Metric-only scenarios are fine (avalanche studies).
        small_scenario(attacks=()).validate()

    def test_unknown_components_rejected(self):
        with pytest.raises(ScenarioError, match="unknown locking algorithm"):
            small_scenario(lockers=(LockerSpec("warlock"),)).validate()
        with pytest.raises(ScenarioError, match="unknown attack"):
            small_scenario(attacks=(AttackSpec("voodoo"),)).validate()
        with pytest.raises(ScenarioError, match="unknown metric"):
            small_scenario(metrics=(MetricSpec("entropy9000"),)).validate()
        with pytest.raises(ScenarioError, match="unknown benchmark"):
            small_scenario(benchmarks=("NOPE",)).validate()

    def test_duplicates_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            small_scenario(lockers=(LockerSpec("era"),
                                    LockerSpec("era"))).validate()

    def test_field_ranges(self):
        with pytest.raises(ScenarioError):
            small_scenario(samples=0)
        with pytest.raises(ScenarioError):
            small_scenario(scale=0.0)
        with pytest.raises(ScenarioError):
            LockerSpec("era", key_budget_fraction=0.0)
        with pytest.raises(ScenarioError):
            AttackSpec(rounds=0)

    def test_options_must_not_shadow_runner_arguments(self):
        with pytest.raises(ScenarioError, match="options must not override"):
            LockerSpec("era", options={"rng": 1})
        with pytest.raises(ScenarioError, match="rounds"):
            AttackSpec("snapshot", options={"rounds": 9})
        with pytest.raises(ScenarioError, match="options must not override"):
            MetricSpec("avalanche", options={"design": None})
        # Genuinely free-form options remain allowed.
        AttackSpec("majority", options={"ensemble_size": 3})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            Scenario.from_dict({"name": "x", "benchmarks": ["SASC"],
                                "lockers": ["era"], "attacks": ["snapshot"],
                                "typo_field": 1})
        with pytest.raises(ScenarioError, match="unknown locker field"):
            LockerSpec.from_dict({"algorithm": "era", "budget": 0.5})


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        scenario = small_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip_is_lossless(self, tmp_path):
        scenario = small_scenario()
        path = scenario.save(tmp_path / "scn.json")
        loaded = Scenario.from_file(path)
        assert loaded == scenario
        assert loaded.fingerprint() == scenario.fingerprint()

    def test_round_trip_preserves_run_plan(self, tmp_path):
        scenario = small_scenario()
        reloaded = Scenario.from_json(scenario.to_json())
        original_jobs = scenario.expand()
        reloaded_jobs = reloaded.expand()
        assert [job.job_id for job in original_jobs] == \
            [job.job_id for job in reloaded_jobs]
        assert [(j.locker_seed, j.attack_seed if j.kind == "attack"
                 else j.metric_seed) for j in original_jobs] == \
            [(j.locker_seed, j.attack_seed if j.kind == "attack"
              else j.metric_seed) for j in reloaded_jobs]

    def test_bare_name_strings_accepted(self):
        scenario = Scenario.from_dict({
            "name": "short", "benchmarks": ["SASC"], "lockers": ["era"],
            "attacks": ["snapshot"], "metrics": ["avalanche"],
            "samples": 1, "scale": 0.15,
        })
        assert scenario.lockers[0] == LockerSpec("era")
        assert scenario.attacks[0].name == "snapshot"

    def test_invalid_json_raises_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError):
            Scenario.from_json("{not json")
        with pytest.raises(ScenarioError):
            Scenario.from_file(tmp_path / "missing.json")

    def test_saved_file_is_plain_json(self, tmp_path):
        path = small_scenario().save(tmp_path / "scn.json")
        data = json.loads(path.read_text())
        assert data["name"] == "unit"
        assert data["lockers"][1]["key_budget_fraction"] == 0.5


class TestExpansion:
    def test_job_count_and_order(self):
        scenario = small_scenario()
        jobs = scenario.expand()
        # 2 benchmarks x 2 lockers x 2 samples x (1 attack + 1 metric)
        assert len(jobs) == 16
        assert jobs[0].benchmark == "SASC" and jobs[0].kind == "attack"
        assert jobs[1].kind == "metric"
        ids = [job.job_id for job in jobs]
        assert len(set(ids)) == len(ids), "job ids must be unique"

    def test_legacy_seed_derivation(self):
        import zlib

        scenario = small_scenario()
        job = scenario.expand()[0]
        cell = zlib.crc32(f"{scenario.seed}/SASC/assure".encode()) & 0x7FFFFFFF
        assert job.cell_seed == cell
        assert job.locker_seed == cell
        assert job.attack_seed == cell + 7  # first attack, sample 0

    def test_job_kind_validation(self):
        with pytest.raises(ScenarioError):
            JobSpec(kind="attack", benchmark="SASC", locker=LockerSpec("era"),
                    sample=0, seed=0, scale=1.0)  # missing attack spec
