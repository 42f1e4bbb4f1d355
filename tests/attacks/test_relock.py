"""Unit tests for training-set construction by self-referencing."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.api import locker_names, make_locker
from repro.api.scenario import key_budget
from repro.attacks import LocalityExtractor, TrainingSetBuilder
from repro.attacks.locality import _key_bit_index
from repro.bench import benchmark_names, load_benchmark
from repro.locking import (ORIGINAL_ASSURE_TABLE, AssureLocker, ERALocker,
                           LockingSession)
from repro.rtlir import Design
from repro.verilog import ast

#: One assign of nested operations: relocking an outer operation clones the
#: ternaries an earlier lock of the same round put inside its operands, so
#: one key bit of the round can occur several times.  ``z`` holds the
#: target's own lock, which leaves every operation of ``y`` lockable.
NESTED_SOURCE = """
module nested (input [7:0] a, b, c, d, output [7:0] y, z);
  assign y = ((a + b) * (c - d)) ^ ((a & b) | (c + d));
  assign z = c / d;
endmodule
"""

#: A module with one if-statement and no binary operation.
BRANCH_ONLY_SOURCE = """
module branchy (input s, input [7:0] a, b, output reg [7:0] y);
  always @(*) begin
    if (s) y = a; else y = b;
  end
endmodule
"""


class TestTrainingSetBuilder:
    def test_unlocked_target_rejected(self, mixer_design, rng):
        with pytest.raises(ValueError):
            TrainingSetBuilder(rng=rng).build(mixer_design)

    def test_invalid_round_count(self):
        with pytest.raises(ValueError):
            TrainingSetBuilder(rounds=0)

    @pytest.mark.parametrize("relock_budget", [0, -1])
    def test_non_positive_relock_budget_rejected(self, relock_budget):
        """Regression: a zero budget used to fall back to the key width."""
        with pytest.raises(ValueError):
            TrainingSetBuilder(relock_budget=relock_budget)

    def test_training_set_size(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 5).design
        training = TrainingSetBuilder(rounds=6, rng=random.Random(1)).build(target)
        assert training.rounds == 6
        assert training.bits_per_round == 5
        assert training.size == 30
        assert training.features.shape == (30, 2)
        assert training.labels.shape == (30,)

    def test_explicit_relock_budget(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 3).design
        training = TrainingSetBuilder(rounds=4, relock_budget=2,
                                      rng=random.Random(2)).build(target)
        assert training.size == 8

    def test_target_not_mutated(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        text_before = target.to_verilog()
        TrainingSetBuilder(rounds=3, rng=random.Random(3)).build(target)
        assert target.to_verilog() == text_before
        assert target.key_width == 4

    def test_labels_only_cover_new_bits(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        training = TrainingSetBuilder(rounds=5, rng=random.Random(4)).build(target)
        # Training labels are the relocking keys, which are random: over 20
        # samples both values should appear with overwhelming probability.
        assert set(np.unique(training.labels)) == {0, 1}
        assert 0.0 < training.label_balance() < 1.0

    def test_feature_space_matches_extractor(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 3).design
        training = TrainingSetBuilder(rounds=2,
                                      rng=random.Random(5)).build(target)
        assert training.features.shape[1] == LocalityExtractor.n_features

    def test_build_survives_a_raising_progress_hook(self, mixer_design, rng,
                                                    caplog):
        """Regression: an observer callback must not abort the rounds."""
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        calls = []

        def bad_hook(done, rounds):
            calls.append(done)
            raise RuntimeError("observer bug")

        with caplog.at_level("WARNING"):
            training = TrainingSetBuilder(
                rounds=3, rng=random.Random(6)).build(target,
                                                      progress=bad_hook)
        assert training.rounds == 3
        assert calls == [1, 2, 3]
        assert "progress hook raised" in caplog.text


class TestSignalContent:
    def test_imbalanced_target_produces_biased_observations(self, plus_chain_design):
        # On a +-only design locked by plain ASSURE the '+' appears as the
        # real operation in the training set far more often than '-'.
        target = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, 4).design
        training = TrainingSetBuilder(rounds=20, rng=random.Random(1)).build(target)
        from repro.rtlir import encode_operator
        plus, minus = encode_operator("+"), encode_operator("-")
        real_ops = np.where(training.labels == 1,
                            training.features[:, 0], training.features[:, 1])
        plus_fraction = np.mean(real_ops == plus)
        assert plus_fraction > 0.55

    def test_era_balanced_target_produces_contradictory_observations(
            self, plus_chain_design):
        target = ERALocker(rng=random.Random(0)).lock(plus_chain_design, 6).design
        training = TrainingSetBuilder(rounds=20, rng=random.Random(1)).build(target)
        from repro.rtlir import encode_operator
        plus = encode_operator("+")
        real_ops = np.where(training.labels == 1,
                            training.features[:, 0], training.features[:, 1])
        plus_fraction = np.mean(real_ops == plus)
        assert 0.35 < plus_fraction < 0.65


#: The training rows against relocking a fresh copy of the target every
#: round: every benchmark at ROWS_SCALE is locked by every registered
#: locker under each table of PAIR_TABLES, once per seed of ROWS_SEEDS, then
#: relocked for ROWS_ROUNDS rounds with every budget of RELOCK_BUDGETS.
ROWS_SCALE = 0.1
ROWS_SEEDS = (5,)
ROWS_ROUNDS = 2

#: Relock pair tables: the fixed symmetric default and the leaky original.
PAIR_TABLES = (None, ORIGINAL_ASSURE_TABLE)

#: Relock budgets per target: its key width, a small fixed budget, and more
#: bits than the target has operations (so every candidate is locked).
RELOCK_BUDGETS = (
    lambda target: target.key_width,
    lambda target: 3,
    lambda target: target.num_operations() + 1,
)


def _has_duplicates(design, bits):
    """True when a key bit of the round controls more than one ternary."""
    wanted = set(bits)
    counts = Counter(_key_bit_index(node.cond, design.key_port)
                     for node in design.top.iter_tree()
                     if isinstance(node, ast.TernaryOp))
    return any(counts[bit] > 1 for bit in wanted)


def _check_rows(target, table, budget, rounds, seed):
    """The training set equals the fresh-copy reference bit for bit.

    The reference locks a fresh copy of ``target`` in every round and reads
    the new key bits with ``extract_matrix``.  Returns the number of
    reference rounds in which a new key bit controls more than one ternary.
    """
    extractor = LocalityExtractor()
    training = TrainingSetBuilder(
        relock_budget=budget, rounds=rounds, pair_table=table,
        rng=random.Random(seed)).build(target)
    master = random.Random(seed)
    features, labels, duplicated = [], [], 0
    for _ in range(rounds):
        locker = AssureLocker("random", pair_table=table,
                              rng=random.Random(master.getrandbits(64)),
                              track_metrics=False)
        result = locker.lock(target, budget)
        bits = [bit.index for bit in result.new_key_bits]
        rows, values = extractor.extract_matrix(result.design,
                                                key_indices=bits)
        features.append(rows)
        labels.append(values)
        duplicated += _has_duplicates(result.design, bits)
    features, labels = np.vstack(features), np.concatenate(labels)
    case = (target.top.name, table and table.name, budget, seed)
    assert training.features.dtype == features.dtype, case
    assert training.labels.dtype == labels.dtype, case
    assert training.features.shape == features.shape, case
    assert np.array_equal(training.features, features), case
    assert np.array_equal(training.labels, labels), case
    return duplicated


def _check_benchmark(name, locker, table, seed, budgets):
    """Lock benchmark ``name`` with ``locker``; check its rows per budget."""
    design = load_benchmark(name, scale=ROWS_SCALE, seed=seed)
    budget = key_budget(0.5, name, locker, design.num_operations())
    target = make_locker(locker, rng=random.Random(seed),
                         pair_table=table).lock(design, budget).design
    for relock_budget in budgets:
        _check_rows(target, table, relock_budget(target), ROWS_ROUNDS, seed)


class TestTypeLevelPairRows:
    """The type-level rows match relocking a fresh copy every round."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_every_benchmark_locker_table_and_budget(self, name):
        for locker in locker_names():
            for table in PAIR_TABLES:
                for seed in ROWS_SEEDS:
                    _check_benchmark(name, locker, table, seed,
                                     RELOCK_BUDGETS)

    def test_a_round_that_locks_nothing_keeps_the_row_shape(self):
        # A branch-locked target with no binary operation to relock.
        design = Design.from_verilog(BRANCH_ONLY_SOURCE)
        target = AssureLocker(rng=random.Random(0)).lock_branches(
            design, 1).design
        training = TrainingSetBuilder(rounds=2,
                                      rng=random.Random(1)).build(target)
        assert training.features.shape == (0, LocalityExtractor.n_features)
        assert training.features.dtype == np.float64
        assert training.labels.shape == (0,)
        assert training.labels.dtype == np.dtype(int)

    def test_nested_rounds_that_duplicate_key_bits(self):
        design = Design.from_verilog(NESTED_SOURCE)
        session = LockingSession(design, rng=random.Random(0))
        session.add_pair(session.ops_of_type("/")[0])
        duplicated = _check_rows(design, None, budget=6, rounds=300, seed=11)
        # The clone trap: relocking an outer operation clones the ternaries
        # an earlier pair of the same round put inside its operands.
        assert duplicated > 100
