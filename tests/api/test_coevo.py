"""Co-evolution loop: golden determinism, genome derivation, labels."""

import json
import shutil

import pytest

from repro.api import (
    AttackSpec,
    CoevoSpec,
    LockerSpec,
    MetricSpec,
    Scenario,
)
from repro.api.coevo import CoevoError, CoevoLoop, run_coevo


def coevo_scenario(**coevo_overrides):
    coevo = dict(
        generations=2,
        population=3,
        elites=1,
        algorithms=("era", "assure"),
        fraction_min=0.3,
        fraction_max=0.9,
        option_space={"mode": ("serial", "random")},
        avalanche_vectors=4,
    )
    coevo.update(coevo_overrides)
    return Scenario(
        name="coevo-unit",
        benchmarks=("SASC",),
        lockers=(LockerSpec("era", key_budget_fraction=0.5),),
        attacks=(AttackSpec("majority", rounds=3),),
        samples=1,
        scale=0.1,
        seed=7,
        coevo=CoevoSpec(**coevo),
    )


class TestCoevoSpec:
    def test_roundtrips_through_scenario_json(self):
        scenario = coevo_scenario()
        rebuilt = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario
        assert rebuilt.coevo == scenario.coevo

    def test_plain_scenario_dict_is_unchanged(self):
        # No coevo block -> no "coevo" key, so fingerprints and store
        # stamps of pre-coevo scenarios are untouched.
        scenario = coevo_scenario()
        plain = Scenario.from_dict(
            {k: v for k, v in scenario.to_dict().items() if k != "coevo"})
        assert "coevo" not in plain.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError, match="elites"):
            CoevoSpec(population=2, elites=2)
        with pytest.raises(ValueError, match="fraction"):
            CoevoSpec(fraction_min=0.8, fraction_max=0.4)
        with pytest.raises(ValueError, match="fitness weight"):
            CoevoSpec(kpa_weight=0.0, avalanche_weight=0.0)
        with pytest.raises(ValueError, match="candidate"):
            CoevoSpec(option_space={"mode": ()})


class TestCoevoLoop:
    def test_requires_coevo_block(self):
        scenario = Scenario(
            name="no-coevo", benchmarks=("SASC",),
            lockers=(LockerSpec("era"),),
            attacks=(AttackSpec("majority", rounds=2),),
            samples=1, scale=0.1, seed=1)
        with pytest.raises(CoevoError, match="no 'coevo' block"):
            CoevoLoop(scenario)

    def test_kpa_fitness_needs_attacks(self):
        scenario = Scenario(
            name="no-attacks", benchmarks=("SASC",),
            lockers=(LockerSpec("era"),),
            metrics=(MetricSpec("avalanche"),),
            samples=1, scale=0.1, seed=1,
            coevo=CoevoSpec(algorithms=("era",)))
        with pytest.raises(CoevoError, match="attack"):
            CoevoLoop(scenario)

    def test_initial_population_is_seed_derived(self):
        loop_a = CoevoLoop(coevo_scenario())
        loop_b = CoevoLoop(coevo_scenario())
        assert loop_a.initial_population() == loop_b.initial_population()
        genomes = loop_a.initial_population()
        assert len(genomes) == 3
        for genome in genomes:
            assert genome.algorithm in ("era", "assure")
            assert 0.3 <= genome.fraction <= 0.9
            assert dict(genome.options)["mode"] in ("serial", "random")

    def test_generation_scenario_is_plain_and_labelled(self):
        loop = CoevoLoop(coevo_scenario())
        population = loop.initial_population()
        generated = loop.generation_scenario(0, population)
        assert generated.coevo is None
        assert generated.name == "coevo-unit-gen000"
        labels = [spec.label for spec in generated.lockers]
        assert len(set(labels)) == len(labels)
        # The loop appends the avalanche fitness metric when absent.
        assert any(metric.name == "avalanche"
                   for metric in generated.metrics)
        # Still a valid, expandable scenario (submittable to the server).
        assert generated.validate().expand()

    def test_labelled_records_keep_algorithm_seeds(self):
        # Two genomes of the same algorithm+fraction must produce identical
        # results regardless of their slot labels: seeds are algorithm-based.
        loop = CoevoLoop(coevo_scenario())
        genome = loop.initial_population()[0]
        scenario = loop.generation_scenario(0, [genome, genome])
        from repro.api import Runner
        records = Runner(scenario).run().records
        by_label = {}
        for record in records.values():
            stripped = {k: v for k, v in record.items()
                        if k not in ("job_id", "locker_label",
                                     "elapsed_seconds")}
            by_label.setdefault(record["locker_label"], []).append(stripped)
        (label_a, recs_a), (label_b, recs_b) = sorted(by_label.items())
        assert label_a != label_b
        assert recs_a == recs_b


class TestGoldenDeterminism:
    """The ISSUE's golden invariant: one history, three execution paths."""

    @pytest.fixture(scope="class")
    def serial_report(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("coevo-serial")
        return run_coevo(coevo_scenario(), store_root=root), root

    def test_process_backend_identical(self, serial_report, tmp_path):
        reference, _ = serial_report
        parallel = run_coevo(coevo_scenario(), store_root=tmp_path, jobs=2)
        assert parallel.history == reference.history
        assert parallel.best == reference.best

    def test_resume_from_half_complete_store_identical(self, serial_report,
                                                       tmp_path):
        reference, _ = serial_report
        # Build a half-complete store: full run, then drop the last
        # generation and half of the first generation's records.
        full = run_coevo(coevo_scenario(), store_root=tmp_path)
        shutil.rmtree(tmp_path / "gen-001")
        gen0_jobs = sorted((tmp_path / "gen-000" / "jobs").iterdir())
        for record_file in gen0_jobs[: len(gen0_jobs) // 2]:
            record_file.unlink()
        resumed = run_coevo(coevo_scenario(), store_root=tmp_path)
        assert resumed.history == reference.history
        assert resumed.best == reference.best
        assert 0 < resumed.executed_jobs < resumed.total_jobs
        assert full.history == resumed.history

    def test_history_file_matches_report(self, serial_report):
        reference, root = serial_report
        payload = json.loads((root / "coevo.json").read_text())
        assert payload["history"] == reference.history
        assert payload["best"] == reference.best
        assert payload["seed"] == 7
