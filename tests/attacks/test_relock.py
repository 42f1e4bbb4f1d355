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
from repro.ml.base import GroupedRows
from repro.rtlir import Design, KeyBit
from repro.verilog import ast, parse

#: One assign of nested operations: relocking an outer operation clones the
#: ternaries an earlier lock of the same round put inside its operands, so
#: one key bit of the round can occur several times.  The ``z`` outputs hold
#: the target's own six locks, so a round relocks six of ``y``'s seven
#: operations.
NESTED_SOURCE = """
module nested (input [7:0] a, b, c, d, output [7:0] y, z0, z1, z2, z3, z4, z5);
  assign y = ((a + b) * (c - d)) ^ ((a & b) | (c + d));
  assign z0 = c / d;
  assign z1 = a / b;
  assign z2 = a / c;
  assign z3 = b / d;
  assign z4 = a / d;
  assign z5 = b / c;
endmodule
"""

#: ``(kind, Verilog)`` of targets with a key port ``k`` whose key bits, of
#: a kind no locker writes, a key file names: every bit is ``kind``.  No
#: operation of these targets can be relocked: they have none, or the only
#: one reads the key.
NOTHING_TO_RELOCK = [
    ("branch", """
module branchy (input [0:0] k, input [7:0] a, b, output reg [7:0] y);
  always @(*) begin
    if (k[0]) y = a; else y = b;
  end
endmodule
"""),
    ("constant", """
module masked (input [3:0] k, input [7:0] a, output [7:0] y);
  assign y = a + k;
endmodule
"""),
]

#: A target with one relockable operation (``a + b``) and eight key bits:
#: the ``^`` reads the key, so it is no relocking candidate.
FEWER_CANDIDATES_THAN_BITS = """
module masked_sum (input [7:0] k, input [7:0] a, b, output [7:0] y);
  assign y = (a + b) ^ k;
endmodule
"""


def _key_file_target(source, kind, width):
    """A target as a key file describes it: port ``k``, ``width`` bits."""
    return Design(parse(source), key_port="k",
                  key_bits=[KeyBit(index=index, kind=kind, correct_value=1)
                            for index in range(width)])


class TestTrainingSetBuilder:
    def test_unlocked_target_rejected(self, mixer_design, rng):
        with pytest.raises(ValueError):
            TrainingSetBuilder(rng=rng).build(mixer_design)

    def test_invalid_round_count(self):
        with pytest.raises(ValueError):
            TrainingSetBuilder(rounds=0)

    def test_training_set_size(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 5).design
        training = TrainingSetBuilder(rounds=6, rng=random.Random(1)).build(target)
        assert training.rounds == 6
        assert training.bits_per_round == 5
        assert training.size == 30
        assert training.features.shape == (30, 2)
        assert training.labels.shape == (30,)

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
#: relocked for ROWS_ROUNDS rounds.  Each round adds as many key bits as
#: the target has.
ROWS_SCALE = 0.1
ROWS_SEEDS = (5,)
ROWS_ROUNDS = 2

#: Relock pair tables: the fixed symmetric default and the leaky original.
PAIR_TABLES = (None, ORIGINAL_ASSURE_TABLE)

def _has_duplicates(design, bits):
    """True when a key bit of the round controls more than one ternary."""
    wanted = set(bits)
    counts = Counter(_key_bit_index(node.cond, design.key_port)
                     for node in design.top.iter_tree()
                     if isinstance(node, ast.TernaryOp))
    return any(counts[bit] > 1 for bit in wanted)


def _check_rows(target, table, rounds, seed):
    """The training set equals the fresh-copy reference bit for bit.

    Its rows and labels equal the reference's, and its count table equals
    :meth:`GroupedRows.from_rows` of them.

    The reference locks a fresh copy of ``target`` with its own key width
    in every round and reads the new key bits with ``extract_matrix``.
    Returns the number of reference rounds in which a new key bit controls
    more than one ternary.
    """
    extractor = LocalityExtractor()
    training = TrainingSetBuilder(
        rounds=rounds, pair_table=table,
        rng=random.Random(seed)).build(target)
    budget = target.key_width
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
    # The count table is the one the rows group into, field by field, so
    # every CV fold, bootstrap and subsample sees the same indices.
    expected = GroupedRows.from_rows(features, labels)
    for name in ("distinct", "groups", "codes", "classes"):
        field, reference = getattr(training.data, name), getattr(expected, name)
        assert field.dtype == reference.dtype, (case, name)
        assert field.shape == reference.shape, (case, name)
        assert field.tobytes() == reference.tobytes(), (case, name)
    return duplicated


def _check_benchmark(name, locker, table, seed):
    """Lock benchmark ``name`` with ``locker``; check its rows."""
    design = load_benchmark(name, scale=ROWS_SCALE, seed=seed)
    budget = key_budget(0.5, name, locker, design.num_operations())
    target = make_locker(locker, rng=random.Random(seed),
                         pair_table=table).lock(design, budget).design
    _check_rows(target, table, ROWS_ROUNDS, seed)


class TestTypeLevelPairRows:
    """The type-level rows match relocking a fresh copy every round."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_every_benchmark_locker_table_and_budget(self, name):
        for locker in locker_names():
            for table in PAIR_TABLES:
                for seed in ROWS_SEEDS:
                    _check_benchmark(name, locker, table, seed)

    @pytest.mark.parametrize("kind,source", NOTHING_TO_RELOCK,
                             ids=[kind for kind, _ in NOTHING_TO_RELOCK])
    def test_a_round_that_locks_nothing_keeps_the_row_shape(self, kind,
                                                            source):
        target = _key_file_target(source, kind, width=1)
        training = TrainingSetBuilder(rounds=2,
                                      rng=random.Random(1)).build(target)
        assert training.features.shape == (0, LocalityExtractor.n_features)
        assert training.features.dtype == np.float64
        assert training.labels.shape == (0,)
        assert training.labels.dtype == np.dtype(int)
        assert training.size == 0
        assert training.data.distinct.shape == (0,
                                                LocalityExtractor.n_features)
        assert training.data.classes.size == 0

    def test_nested_rounds_that_duplicate_key_bits(self):
        design = Design.from_verilog(NESTED_SOURCE)
        session = LockingSession(design, rng=random.Random(0))
        for ref in session.ops_of_type("/"):
            session.add_pair(ref)
        assert design.key_width == 6
        duplicated = _check_rows(design, None, rounds=400, seed=11)
        # The clone trap: relocking an outer operation clones the ternaries
        # an earlier pair of the same round put inside its operands.
        assert duplicated > 100

    @pytest.mark.parametrize("table", PAIR_TABLES,
                             ids=lambda table: table and table.name)
    def test_more_key_bits_than_candidates_locks_every_candidate(self, table):
        target = _key_file_target(FEWER_CANDIDATES_THAN_BITS, "constant",
                                  width=8)
        _check_rows(target, table, rounds=20, seed=3)
        training = TrainingSetBuilder(rounds=20, pair_table=table,
                                      rng=random.Random(3)).build(target)
        assert training.bits_per_round == 8
        assert training.size == 20
