"""Unit tests for the evaluation experiment pipeline."""

import random

import pytest

from repro.api.scenario import key_budget
from repro.bench import load_benchmark
from repro.eval.experiment import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    SnapShotExperiment,
    make_locker,
)
from repro.locking import AssureLocker, ERALocker, GreedyLocker, HRALocker


class TestMakeLocker:
    def test_known_algorithms(self):
        rng = random.Random(0)
        assert isinstance(make_locker("assure", rng), AssureLocker)
        assert make_locker("assure", rng).selection == "serial"
        assert make_locker("assure-random", rng).selection == "random"
        assert isinstance(make_locker("hra", rng), HRALocker)
        assert isinstance(make_locker("greedy", rng), GreedyLocker)
        assert isinstance(make_locker("era", rng), ERALocker)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_locker("magic", random.Random(0))


class TestBudgets:
    def test_budget_is_75_percent_by_default(self):
        fraction = ExperimentConfig().key_budget_fraction
        operations = load_benchmark("MD5", scale=0.1, seed=0).num_operations()
        budget = key_budget(fraction, "MD5", "assure", operations)
        assert budget == int(round(0.75 * operations))

    def test_n2046_era_uses_full_budget(self):
        fraction = ExperimentConfig().key_budget_fraction
        operations = load_benchmark("N_2046", scale=0.02,
                                    seed=0).num_operations()
        assert key_budget(fraction, "N_2046", "era", operations) == operations
        assert key_budget(fraction, "N_2046", "assure", operations) == \
            int(round(0.75 * operations))


class TestRunCell:
    @pytest.fixture
    def quick_config(self):
        return ExperimentConfig(
            benchmarks=["SASC"],
            algorithms=("assure", "era"),
            scale=0.15,
            n_test_lockings=2,
            relock_rounds=6,
            automl_time_budget=1.0,
            seed=3,
        )

    def test_empty_cell_mean_raises(self):
        with pytest.raises(ValueError):
            CellResult("X", "assure").mean_kpa

    def test_full_run_and_aggregations(self, quick_config):
        result = SnapShotExperiment(quick_config).run()
        assert isinstance(result, ExperimentResult)
        assert len(result.cells) == 2  # 1 benchmark x 2 algorithms
        for cell, algorithm in zip(result.cells, ("assure", "era")):
            assert cell.benchmark == "SASC"
            assert cell.algorithm == algorithm
            assert len(cell.attacks) == 2
            assert 0.0 <= cell.mean_kpa <= 100.0
            assert cell.key_budget >= 1

        table = result.kpa_table()
        assert set(table) == {"SASC"}
        assert set(table["SASC"]) == {"assure", "era"}

        average = result.average_kpa()
        assert set(average) == {"assure", "era"}

        samples = result.kpa_samples()
        assert len(samples) == 4  # 2 algorithms x 2 lockings
        by_benchmark = result.aggregate_by_benchmark()
        assert by_benchmark["SASC"].count == 4

    def test_run_is_reproducible_with_same_seed(self, quick_config):
        first = SnapShotExperiment(quick_config).run().kpa_table()
        second = SnapShotExperiment(quick_config).run().kpa_table()
        assert first == second


class TestFunctionalValidation:
    def test_functional_vectors_flow_into_results(self):
        config = ExperimentConfig(
            benchmarks=["SASC"],
            algorithms=("assure",),
            scale=0.15,
            n_test_lockings=1,
            relock_rounds=4,
            automl_time_budget=0.5,
            functional_vectors=16,
            seed=5,
        )
        result = SnapShotExperiment(config).run()
        (cell,) = result.cells
        (attack,) = cell.attacks
        assert attack.functional_kpa is not None
        assert 0.0 <= attack.functional_kpa <= 100.0
        (sample,) = result.kpa_samples()
        assert sample.metadata["functional_kpa"] == attack.functional_kpa

    def test_functional_validation_off_by_default(self):
        config = ExperimentConfig(
            benchmarks=["SASC"],
            algorithms=("assure",),
            scale=0.15,
            n_test_lockings=1,
            relock_rounds=4,
            automl_time_budget=0.5,
            seed=5,
        )
        result = SnapShotExperiment(config).run()
        (attack,) = result.cells[0].attacks
        assert attack.functional_kpa is None
        (sample,) = result.kpa_samples()
        assert "functional_kpa" not in sample.metadata
