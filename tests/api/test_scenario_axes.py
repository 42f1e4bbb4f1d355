"""Matrix axes: golden single-value expansion, sweeps, ordering, records."""

import json

import pytest

from repro.api import (
    AttackSpec,
    LockerSpec,
    MetricSpec,
    Scenario,
    ScenarioError,
    execute_job,
)
from repro.api.scenario import format_axis_value

# Golden run plan of a single-value (no matrix axes) scenario, pinned at the
# PR 3 semantics: (job_id, locker_seed, attack-or-metric stream seed).  The
# seeds are the literal crc32-derived values of the historical Fig. 6
# formula — if this table changes, every stored run stops resuming and
# earlier Fig. 6 records can no longer be reproduced.
GOLDEN_SINGLE_VALUE = [
    ("attack__SASC__assure__snapshot__s0", 1452977717, 1452977724),
    ("metric__SASC__assure__avalanche__s0", 1452977717, 1452985636),
    ("attack__SASC__assure__snapshot__s1", 1452978717, 1452978724),
    ("metric__SASC__assure__avalanche__s1", 1452978717, 1452986636),
    ("attack__SASC__era__snapshot__s0", 390701767, 390701774),
    ("metric__SASC__era__avalanche__s0", 390701767, 390709686),
    ("attack__SASC__era__snapshot__s1", 390702767, 390702774),
    ("metric__SASC__era__avalanche__s1", 390702767, 390710686),
    ("attack__FIR__assure__snapshot__s0", 1592369940, 1592369947),
    ("metric__FIR__assure__avalanche__s0", 1592369940, 1592377859),
    ("attack__FIR__assure__snapshot__s1", 1592370940, 1592370947),
    ("metric__FIR__assure__avalanche__s1", 1592370940, 1592378859),
    ("attack__FIR__era__snapshot__s0", 409168264, 409168271),
    ("metric__FIR__era__avalanche__s0", 409168264, 409176183),
    ("attack__FIR__era__snapshot__s1", 409169264, 409169271),
    ("metric__FIR__era__avalanche__s1", 409169264, 409177183),
]

#: Exact record key order of a single-value job, as written by PR 3 stores.
ATTACK_RECORD_KEYS = [
    "job_id", "kind", "benchmark", "locker", "sample", "seed", "scale",
    "key_budget", "num_operations", "key_width", "attack", "result",
    "elapsed_seconds",
]
METRIC_RECORD_KEYS = [
    "job_id", "kind", "benchmark", "locker", "sample", "seed", "scale",
    "key_budget", "num_operations", "key_width", "metric", "result",
    "elapsed_seconds",
]


def single_value_scenario(**overrides):
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


def matrix_scenario(**overrides):
    base = dict(
        name="matrix-unit",
        benchmarks=("SASC",),
        lockers=(LockerSpec("era", key_budget_fractions=(0.25, 0.75)),),
        attacks=(AttackSpec("snapshot", rounds=4,
                            time_budgets=(0.5, 2.0)),),
        samples=1,
        scale=0.15,
        seeds=(7, 11),
    )
    base.update(overrides)
    return Scenario(**base)


class TestGoldenSingleValueExpansion:
    """A scenario without axes must expand exactly as before axes existed."""

    def test_expansion_matches_golden_plan(self):
        jobs = single_value_scenario().expand()
        actual = [(job.job_id, job.locker_seed,
                   job.attack_seed if job.kind == "attack"
                   else job.metric_seed)
                  for job in jobs]
        assert actual == GOLDEN_SINGLE_VALUE

    def test_no_axes_on_single_value_jobs(self):
        assert all(job.axes == () for job in
                   single_value_scenario().expand())

    def test_to_dict_has_no_axis_fields(self):
        data = single_value_scenario().to_dict()
        assert "seeds" not in data
        assert all("key_budget_fractions" not in entry
                   for entry in data["lockers"])
        assert all("time_budgets" not in entry for entry in data["attacks"])

    def test_fingerprint_matches_pre_axes_dict(self):
        """The fingerprint of a single-value scenario is computed over the
        exact pre-axes dict, so PR 3 store stamps still resume."""
        scenario = single_value_scenario()
        legacy_dict = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(legacy_dict).fingerprint() == \
            scenario.fingerprint()

    def test_record_shape_is_byte_identical_to_pr3(self):
        scenario = single_value_scenario(
            benchmarks=("SASC",), lockers=(LockerSpec("era"),),
            attacks=(AttackSpec("snapshot", rounds=3, time_budget=0.5),),
            samples=1)
        attack_record = execute_job(scenario.expand()[0])
        assert list(attack_record) == ATTACK_RECORD_KEYS
        metric_record = execute_job(scenario.expand()[1])
        assert list(metric_record) == METRIC_RECORD_KEYS


class TestMatrixExpansion:
    def test_two_by_two_by_two_is_eight_jobs(self):
        scenario = matrix_scenario()
        attack_jobs = [job for job in scenario.expand()
                       if job.kind == "attack"]
        # 2 seeds x 2 key sizes x 2 budgets on a 1x1x1x1 base scenario.
        assert len(attack_jobs) == 8
        base = matrix_scenario(seeds=(), lockers=(LockerSpec("era", 0.75),),
                               attacks=(AttackSpec("snapshot", rounds=4,
                                                   time_budget=0.5),))
        assert len(attack_jobs) == 8 * len(base.expand())

    def test_job_ids_are_unique_and_tagged(self):
        jobs = matrix_scenario().expand()
        ids = [job.job_id for job in jobs]
        assert len(set(ids)) == len(ids)
        assert "attack__SASC__era__snapshot__s0__seed7__kb0.25__tb0.5" in ids
        assert "attack__SASC__era__snapshot__s0__seed11__kb0.75__tb2" in ids

    def test_expansion_order_is_stable(self):
        """The run plan is a pure function of the scenario: re-expansion and
        a JSON round-trip produce the identical ordered plan (this is the
        cross-platform stability contract — no hashing, no set iteration)."""
        scenario = matrix_scenario()
        first = [job.job_id for job in scenario.expand()]
        second = [job.job_id for job in scenario.expand()]
        reloaded = [job.job_id
                    for job in Scenario.from_json(scenario.to_json()).expand()]
        assert first == second == reloaded
        # Axis order within one cell: budget axis is innermost.
        assert first[0].endswith("__seed7__kb0.25__tb0.5")
        assert first[1].endswith("__seed7__kb0.25__tb2")

    def test_seed_axis_drives_job_seed(self):
        seeds = {job.seed for job in matrix_scenario().expand()}
        assert seeds == {7, 11}

    def test_budget_sweep_is_a_controlled_comparison(self):
        """Budget points share the attack stream; only the budget differs."""
        jobs = [job for job in matrix_scenario().expand()
                if job.kind == "attack" and job.seed == 7
                and job.locker.key_budget_fraction == 0.25]
        assert len(jobs) == 2
        assert jobs[0].attack_seed == jobs[1].attack_seed
        assert {job.attack.time_budget for job in jobs} == {0.5, 2.0}

    def test_key_size_sweep_shares_the_locking_stream(self):
        jobs = [job for job in matrix_scenario().expand()
                if job.kind == "attack" and job.seed == 7
                and job.attack.time_budget == 0.5]
        assert len(jobs) == 2
        assert jobs[0].locker_seed == jobs[1].locker_seed
        assert {job.locker.key_budget_fraction for job in jobs} == \
            {0.25, 0.75}

    def test_axes_recorded_on_jobs(self):
        job = matrix_scenario().expand()[0]
        assert job.axes == (("seed", 7), ("key_budget_fraction", 0.25),
                            ("time_budget", 0.5))

    def test_metric_jobs_sweep_seed_and_key_size_but_not_budget(self):
        scenario = matrix_scenario(
            metrics=(MetricSpec("avalanche", {"vectors": 4}),))
        metric_jobs = [job for job in scenario.expand()
                       if job.kind == "metric"]
        # 2 seeds x 2 key sizes (the locked design differs), no budget axis.
        assert len(metric_jobs) == 4
        assert all(dict(job.axes).keys() == {"seed", "key_budget_fraction"}
                   for job in metric_jobs)

    def test_axis_values_summary(self):
        assert matrix_scenario().axis_values() == {
            "seed": [7, 11],
            "key_budget_fraction": [0.25, 0.75],
            "time_budget": [0.5, 2.0],
        }
        assert single_value_scenario().axis_values() == {}


class TestAxisValidationAndRoundTrip:
    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            matrix_scenario(seeds=(7, 7))
        with pytest.raises(ScenarioError, match="duplicate"):
            LockerSpec("era", key_budget_fractions=(0.5, 0.5))
        with pytest.raises(ScenarioError, match="duplicate"):
            AttackSpec("snapshot", time_budgets=(1.0, 1.0))

    def test_axis_value_ranges_checked(self):
        with pytest.raises(ScenarioError, match="key_budget_fraction"):
            LockerSpec("era", key_budget_fractions=(0.5, 1.5))
        with pytest.raises(ScenarioError, match="time_budget"):
            AttackSpec("snapshot", time_budgets=(1.0, -1.0))

    def test_axis_values_colliding_in_job_id_tags_rejected(self):
        """Distinct floats that format to the same job-id tag would silently
        overwrite each other's store records — refused up front."""
        with pytest.raises(ScenarioError, match="same .*tag"):
            AttackSpec("snapshot", time_budgets=(1.0000001, 1.0000002))
        with pytest.raises(ScenarioError, match="same .*tag"):
            LockerSpec("era", key_budget_fractions=(1 / 3, 0.333333))

    def test_json_round_trip_preserves_axes(self):
        scenario = matrix_scenario()
        reloaded = Scenario.from_json(scenario.to_json())
        assert reloaded == scenario
        assert reloaded.fingerprint() == scenario.fingerprint()
        assert [job.job_id for job in reloaded.expand()] == \
            [job.job_id for job in scenario.expand()]

    def test_unknown_axis_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown locker field"):
            LockerSpec.from_dict({"algorithm": "era", "budgets": [0.5]})

    def test_format_axis_value(self):
        assert format_axis_value(7) == "7"
        assert format_axis_value(0.5) == "0.5"
        assert format_axis_value(4.0) == "4"


class TestEstimatedCost:
    """The process pool's private cost estimate (dispatch order only)."""

    def test_attack_cost_scales_with_rounds_budget_and_gates(self):
        from repro.api.backends import _job_cost

        def job_with(benchmark="SASC", rounds=4, budget=1.0):
            scenario = Scenario(
                name="cost", benchmarks=(benchmark,),
                lockers=(LockerSpec("era"),),
                attacks=(AttackSpec("snapshot", rounds=rounds,
                                    time_budget=budget),),
                samples=1, scale=0.15)
            return scenario.expand()[0]

        base = _job_cost(job_with())
        assert base > 0
        assert _job_cost(job_with(rounds=8)) == pytest.approx(2 * base)
        assert _job_cost(job_with(budget=2.0)) == pytest.approx(2 * base)
        assert _job_cost(job_with(benchmark="MD5")) > base

    def test_metric_cost_uses_vectors_option(self):
        from repro.api.backends import _job_cost

        scenario = Scenario(
            name="cost", benchmarks=("SASC",), lockers=(LockerSpec("era"),),
            metrics=(MetricSpec("avalanche", {"vectors": 8}),
                     MetricSpec("corruption", {"vectors": 16})),
            samples=1, scale=0.15)
        small, large = scenario.expand()
        assert _job_cost(large) == pytest.approx(
            2 * _job_cost(small))
