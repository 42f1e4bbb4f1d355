"""Unit tests for the baseline (non-ML) attacks."""

import random

import pytest

from repro.attacks import MajorityVoteAttack, PairAsymmetryAttack, RandomGuessAttack
from repro.bench import plus_network
from repro.locking import AssureLocker, ERALocker
from repro.locking.pairs import ORIGINAL_ASSURE_TABLE, SYMMETRIC_PAIR_TABLE


class TestRandomGuess:
    def test_requires_locked_target(self, mixer_design, rng):
        with pytest.raises(ValueError):
            RandomGuessAttack(rng).attack(mixer_design)

    def test_kpa_near_fifty_on_large_key(self):
        design = plus_network(120, name="plus120")
        target = AssureLocker("serial", rng=random.Random(0)).lock(design, 100).design
        result = RandomGuessAttack(random.Random(1)).attack(target)
        assert 35.0 <= result.kpa <= 65.0
        assert result.training_size == 0


class TestMajorityVote:
    def test_breaks_imbalanced_assure(self):
        design = plus_network(40, name="plus40")
        target = AssureLocker("serial", rng=random.Random(0)).lock(design, 30).design
        result = MajorityVoteAttack(rounds=20, rng=random.Random(1)).attack(
            target, algorithm="assure")
        assert result.kpa >= 85.0
        assert result.metadata["distinct_pairs"] >= 2

    def test_random_against_era(self):
        design = plus_network(40, name="plus40")
        target = ERALocker(rng=random.Random(0)).lock(design, 30).design
        result = MajorityVoteAttack(rounds=20, rng=random.Random(1)).attack(target)
        assert 30.0 <= result.kpa <= 70.0

    def test_requires_locked_target(self, mixer_design, rng):
        with pytest.raises(ValueError):
            MajorityVoteAttack(rng=rng).attack(mixer_design)


class TestPairAsymmetry:
    def test_resolves_leaky_pairs_with_original_table(self):
        # A design dominated by the operators whose original-ASSURE pairing is
        # asymmetric (Section 3.2): *, ^, %, ** all pair "one way only", so an
        # attacker who knows the table resolves most key bits without training.
        from repro.bench.generators import profile_design
        from repro.bench.profiles import BenchmarkProfile
        profile = BenchmarkProfile("leaky", "leaky-pair heavy design",
                                   {"*": 10, "^": 10, "%": 5, "**": 3, "+": 4},
                                   sequential=False)
        design = profile_design(profile, seed=0)
        locker = AssureLocker("serial", pair_table=ORIGINAL_ASSURE_TABLE,
                              rng=random.Random(0))
        target = locker.lock(design, design.num_operations()).design
        result = PairAsymmetryAttack(rng=random.Random(1)).attack(target)
        assert result.metadata["resolved_bits"] > 0
        assert result.metadata["resolved_fraction"] > 0.5
        # Every resolved bit is correct, so KPA clearly beats the random guess.
        assert result.kpa > 65.0

    def test_cannot_resolve_fixed_symmetric_pairs(self, mixer_design):
        locker = AssureLocker("serial", pair_table=SYMMETRIC_PAIR_TABLE,
                              rng=random.Random(0))
        target = locker.lock(mixer_design, mixer_design.num_operations()).design
        result = PairAsymmetryAttack(rng=random.Random(1)).attack(target)
        assert result.metadata["resolved_bits"] == 0

    def test_resolved_bits_are_always_correct(self, mixer_design):
        locker = AssureLocker("serial", pair_table=ORIGINAL_ASSURE_TABLE,
                              rng=random.Random(2))
        target = locker.lock(mixer_design, mixer_design.num_operations()).design
        attack = PairAsymmetryAttack(rng=random.Random(3))
        result = attack.attack(target)
        # Re-derive which bits were resolvable and check each one individually.
        from repro.attacks import LocalityExtractor
        features, _ = LocalityExtractor().extract_matrix(target)
        for row, predicted, correct in zip(features, result.predicted_key,
                                           result.correct_key):
            decision = attack._decide(row[0], row[1])
            if decision is not None:
                assert predicted == correct

    def test_requires_locked_target(self, mixer_design):
        with pytest.raises(ValueError):
            PairAsymmetryAttack().attack(mixer_design)
