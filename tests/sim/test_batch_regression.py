"""Regression tests: the batch fast path changes *speed*, never *numbers*.

Every metric that previously ran through the scalar simulator — equivalence
reports, output-corruption rates, attack-side KPA bookkeeping — must be
numerically identical when computed through the bit-parallel engine, on the
seed benchmark profiles the paper's evaluation uses.
"""

import random

import pytest

from repro.attacks import SnapShotAttack
from repro.attacks.kpa import functional_kpa, kpa
from repro.bench import load_benchmark
from repro.locking import (
    AssureLocker,
    functional_corruption,
    key_bit_sensitivity,
)
from repro.bench import plus_network
import repro.sim.plan_cache
from repro.sim import (BatchCompileError, CombinationalSimulator,
                       sweep_differences)
from repro.sim.vectors import random_input_batch

from benchmarks import sim_cases
from benchmarks.sim_cases import (ENGINES, Case, Sizes, assert_outputs_match,
                                  compare, run_cases)
from tests.helpers import check_equivalence, flip_bits

#: Seed benchmark profiles covered by the engine-equality regression.
PROFILES = ["MD5", "FIR", "SASC"]


def _locked_benchmark(name, seed=0, scale=0.15):
    design = load_benchmark(name, scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    locked = AssureLocker("serial", rng=random.Random(seed),
                          track_metrics=False).lock(design, budget).design
    return design, locked


def refuse_plans(monkeypatch):
    """From here on, compiling any design raises ``BatchCompileError``, so
    ``repro.sim`` simulates every design on the scalar engine; returns the
    list of designs refused."""
    refused = []

    def refuse(design):
        refused.append(design)
        raise BatchCompileError("plans refused by the test")

    monkeypatch.setattr(repro.sim.plan_cache, "cached_simulator", refuse)
    return refused


class TestEngineEqualityOnSeedProfiles:
    @pytest.mark.parametrize("name", PROFILES)
    def test_equivalence_reports_identical(self, name, monkeypatch):
        design, locked = _locked_benchmark(name)
        key = locked.correct_key
        batch = check_equivalence(design, locked, key=key, vectors=40,
                                  rng=random.Random(1))
        refused = refuse_plans(monkeypatch)
        scalar = check_equivalence(design, locked, key=key, vectors=40,
                                   rng=random.Random(1))
        assert refused == [design, locked]
        assert batch.vectors == scalar.vectors
        assert batch.mismatches == scalar.mismatches
        assert batch.first_mismatch == scalar.first_mismatch
        assert batch.equivalent

    @pytest.mark.parametrize("name", PROFILES)
    def test_wrong_key_reports_identical(self, name, monkeypatch):
        design, locked = _locked_benchmark(name)
        correct = locked.correct_key
        wrong = flip_bits(correct, range(0, len(correct), 2))
        batch = check_equivalence(design, locked, key=wrong, vectors=30,
                                  rng=random.Random(2))
        refuse_plans(monkeypatch)
        scalar = check_equivalence(design, locked, key=wrong, vectors=30,
                                   rng=random.Random(2))
        assert batch.mismatches == scalar.mismatches
        assert batch.first_mismatch == scalar.first_mismatch

    @pytest.mark.parametrize("name", PROFILES)
    def test_corruption_rates_identical(self, name):
        _, locked = _locked_benchmark(name)
        correct = locked.correct_key
        wrong = flip_bits(correct, range(len(correct)))
        batch = random_input_batch(locked, random.Random(3), 40)
        keys = [correct, wrong]
        assert sweep_differences(locked, batch, keys=keys, n=40) \
            == CombinationalSimulator(locked).sweep_differences(
                batch, keys=keys, n=40)


class TestFunctionalMetrics:
    def test_corruption_report_bounds(self):
        _, locked = _locked_benchmark("FIR")
        report = functional_corruption(locked, vectors=24, wrong_keys=4,
                                       rng=random.Random(0))
        assert report.vectors == 24 and report.wrong_keys == 4
        assert len(report.per_key_rates) == 4
        assert all(0.0 <= rate <= 1.0 for rate in report.per_key_rates)
        assert 0.0 <= report.avalanche <= 1.0
        assert report.min_corruption <= report.mean_corruption
        # ASSURE-locked FIR must visibly corrupt under random wrong keys.
        assert report.mean_corruption > 0.0

    def test_corruption_requires_locked_design(self):
        design = load_benchmark("FIR", scale=0.15, seed=0)
        with pytest.raises(ValueError):
            functional_corruption(design)

    def test_key_bit_sensitivity_profile(self):
        _, locked = _locked_benchmark("SASC")
        profile = key_bit_sensitivity(locked, vectors=16,
                                      rng=random.Random(1))
        assert len(profile) == locked.key_width
        assert all(0.0 <= value <= 1.0 for value in profile)
        assert any(value > 0.0 for value in profile)

    def test_sensitivity_is_deterministic_per_seed(self):
        _, locked = _locked_benchmark("FIR")
        first = key_bit_sensitivity(locked, vectors=16, rng=random.Random(5))
        second = key_bit_sensitivity(locked, vectors=16, rng=random.Random(5))
        assert first == second


class TestFunctionalKpa:
    def test_correct_key_scores_100(self):
        _, locked = _locked_benchmark("FIR")
        assert functional_kpa(locked, locked.correct_key, vectors=24,
                              rng=random.Random(0)) == 100.0

    def test_fully_flipped_key_scores_low(self):
        _, locked = _locked_benchmark("FIR")
        wrong = flip_bits(locked.correct_key, range(locked.key_width))
        value = functional_kpa(locked, wrong, vectors=24,
                               rng=random.Random(1))
        assert 0.0 <= value < 100.0

    def test_length_mismatch_rejected(self):
        _, locked = _locked_benchmark("FIR")
        with pytest.raises(ValueError):
            functional_kpa(locked, [0])

    def test_attack_reports_functional_kpa_when_enabled(self):
        _, locked = _locked_benchmark("SASC", seed=3)
        attack = SnapShotAttack(rounds=4, time_budget=0.5,
                                functional_vectors=16,
                                rng=random.Random(0))
        result = attack.attack(locked)
        assert result.functional_kpa is not None
        assert 0.0 <= result.functional_kpa <= 100.0
        assert result.kpa == kpa(result.predicted_key, result.correct_key)

    def test_attack_skips_functional_kpa_by_default(self):
        _, locked = _locked_benchmark("SASC", seed=3)
        attack = SnapShotAttack(rounds=4, time_budget=0.5,
                                rng=random.Random(0))
        result = attack.attack(locked)
        assert result.functional_kpa is None


def _flipped_lane_setup(design, rng, sizes):
    """The engine case with one output lane of the candidate flipped."""
    scalar, batch, counters = ENGINES.setup(design, rng, sizes)

    def flipped():
        outputs = batch()
        outputs[next(iter(outputs))][0] ^= 1
        return outputs

    return scalar, flipped, counters


#: A deliberately unsound case: the case table must fail on it.
FLIPPED_LANE = Case(
    "flipped_lane", "scalar", "flipped", _flipped_lane_setup,
    lambda scale, seed: [("plus_16", plus_network(16, n_inputs=4,
                                                  name="plus_16"))],
    locked_only=False)


class TestMicroBenchmarkHarness:
    def test_engine_case_cross_checks(self):
        design, locked = _locked_benchmark("FIR")
        comparison = compare(ENGINES, locked, Sizes(vectors=64),
                             rng=random.Random(0), repeats=1)
        assert comparison.outputs_match
        assert comparison.counters["vectors"] == 64
        assert comparison.baseline_seconds > 0.0
        assert comparison.candidate_seconds > 0.0

    def test_harness_validates_arguments(self):
        design = load_benchmark("FIR", scale=0.1, seed=0)
        with pytest.raises(ValueError):
            Sizes(vectors=0)
        with pytest.raises(ValueError):
            compare(ENGINES, design, repeats=0)

    def test_flipped_lane_case_reports_mismatch(self, monkeypatch):
        monkeypatch.setattr(sim_cases, "CASES", (ENGINES, FLIPPED_LANE))
        results = run_cases(Sizes(vectors=8), scale=0.1, repeats=1)
        assert all(item.outputs_match for item in results["engines"])
        (flipped,) = results["flipped_lane"]
        assert flipped.outputs_match is False
        with pytest.raises(AssertionError,
                           match="disagree.*: flipped_lane/plus_16$"):
            assert_outputs_match(results)


class TestReviewRegressions:
    def test_functional_validation_does_not_shift_attack_rng(self):
        """Enabling functional_vectors must not change bit-level KPA results."""
        _, locked_a = _locked_benchmark("SASC", seed=7)
        _, locked_b = _locked_benchmark("SASC", seed=7)
        plain_attack = SnapShotAttack(rounds=4, time_budget=0.5,
                                      rng=random.Random(11))
        plain = [plain_attack.attack(target)
                 for target in (locked_a, locked_b)]
        validated_attack = SnapShotAttack(rounds=4, time_budget=0.5,
                                          functional_vectors=16,
                                          rng=random.Random(11))
        validated = [validated_attack.attack(target)
                     for target in (locked_a, locked_b)]
        for before, after in zip(plain, validated):
            assert before.predicted_key == after.predicted_key
            assert before.kpa == after.kpa
        assert all(r.functional_kpa is not None for r in validated)
