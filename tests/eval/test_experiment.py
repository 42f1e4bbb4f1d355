"""The Fig. 6 evaluation experiment, run as a Scenario through the Runner."""

import random

import pytest

from repro.api import AttackSpec, LockerSpec, Runner, Scenario, make_locker
from repro.api.scenario import key_budget
from repro.attacks.kpa import aggregate_by
from repro.bench import load_benchmark
from repro.eval import kpa_tables_from_samples
from repro.locking import AssureLocker, ERALocker, HRALocker


def fig6_scenario(algorithms=("assure", "era"), samples=2, rounds=6,
                  time_budget=1.0, functional_vectors=0, seed=3):
    """A one-benchmark slice of the Fig. 6 workload (what ``evaluate`` runs)."""
    return Scenario(
        name="fig6-unit",
        benchmarks=("SASC",),
        lockers=tuple(LockerSpec(name) for name in algorithms),
        attacks=(AttackSpec("snapshot", rounds=rounds,
                            time_budget=time_budget,
                            functional_vectors=functional_vectors),),
        samples=samples,
        scale=0.15,
        seed=seed,
    )


class TestMakeLocker:
    def test_known_algorithms(self):
        rng = random.Random(0)
        assert isinstance(make_locker("assure", rng), AssureLocker)
        assert make_locker("assure", rng).selection == "serial"
        assert make_locker("assure-random", rng).selection == "random"
        assert isinstance(make_locker("hra", rng), HRALocker)
        greedy = make_locker("greedy", rng)
        assert isinstance(greedy, HRALocker) and greedy.greedy
        assert isinstance(make_locker("era", rng), ERALocker)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_locker("magic", random.Random(0))


class TestBudgets:
    def test_budget_is_75_percent_by_default(self):
        fraction = LockerSpec("assure").key_budget_fraction
        operations = load_benchmark("MD5", scale=0.1, seed=0).num_operations()
        budget = key_budget(fraction, "MD5", "assure", operations)
        assert budget == int(round(0.75 * operations))

    def test_n2046_era_uses_full_budget(self):
        fraction = LockerSpec("era").key_budget_fraction
        operations = load_benchmark("N_2046", scale=0.02,
                                    seed=0).num_operations()
        assert key_budget(fraction, "N_2046", "era", operations) == operations
        assert key_budget(fraction, "N_2046", "assure", operations) == \
            int(round(0.75 * operations))


class TestRunCell:
    def test_full_run_and_aggregations(self):
        report = Runner(fig6_scenario()).run()
        assert not report.failures
        cells = {}
        for record in report.records.values():
            cells.setdefault((record["benchmark"], record["locker"]),
                             []).append(record)
        # 1 benchmark x 2 algorithms, in declaration order.
        assert list(cells) == [("SASC", "assure"), ("SASC", "era")]
        for records in cells.values():
            assert [record["sample"] for record in records] == [0, 1]
            for record in records:
                assert 0.0 <= record["result"]["kpa"] <= 100.0
                assert record["key_budget"] >= 1

        samples = report.kpa_samples()
        assert len(samples) == 4  # 2 algorithms x 2 lockings
        table, average = kpa_tables_from_samples(samples)
        assert set(table) == {"SASC"}
        assert set(table["SASC"]) == {"assure", "era"}
        assert set(average) == {"assure", "era"}
        assert average == {name: group.mean for name, group
                           in aggregate_by(samples, key="algorithm").items()}

    def test_run_is_reproducible_with_same_seed(self):
        first = Runner(fig6_scenario()).run().kpa_samples()
        second = Runner(fig6_scenario()).run().kpa_samples()
        assert kpa_tables_from_samples(first) == \
            kpa_tables_from_samples(second)


class TestFunctionalValidation:
    def test_functional_vectors_flow_into_results(self):
        scenario = fig6_scenario(algorithms=("assure",), samples=1, rounds=4,
                                 time_budget=0.5, functional_vectors=16,
                                 seed=5)
        report = Runner(scenario).run()
        (record,) = report.records.values()
        functional = record["result"]["functional_kpa"]
        assert functional is not None
        assert 0.0 <= functional <= 100.0
        (sample,) = report.kpa_samples()
        assert sample.metadata["functional_kpa"] == functional

    def test_functional_validation_off_by_default(self):
        scenario = fig6_scenario(algorithms=("assure",), samples=1, rounds=4,
                                 time_budget=0.5, seed=5)
        report = Runner(scenario).run()
        (record,) = report.records.values()
        assert record["result"]["functional_kpa"] is None
        (sample,) = report.kpa_samples()
        assert "functional_kpa" not in sample.metadata
