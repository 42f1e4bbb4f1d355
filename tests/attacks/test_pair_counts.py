"""The pair counts of the ``majority`` attack and of Fig. 4 against a row loop.

Both read a :class:`~repro.ml.base.GroupedRows` count table: the
``majority`` attack the training set's table, Fig. 4 one table per round.
Each case below gives relocking rounds of ``(C1, C2)`` rows with their key
values and the target's rows; both counts must agree with the plain row
loop :func:`tests.helpers.pair_votes`.
"""

import random

import numpy as np
import pytest

from repro.attacks import MajorityVoteAttack
from repro.attacks.locality import LocalityExtractor, operation_code
from repro.attacks.relock import TrainingSet, TrainingSetBuilder
from repro.eval.figures import (ObservationPool, _accumulate_observations,
                                _replay_pair_majority)
from repro.ml.base import GroupedRows
from repro.rtlir import Design, KeyBit
from repro.rtlir.operations import NO_OPERATION, decode_operator
from repro.verilog import parse
from tests.helpers import pair_votes

#: A code that no operator has.
UNDECODABLE = 99


def rows(*pairs):
    """``(features, labels)`` of ``(C1, C2, key value)`` triples.

    ``C1``/``C2`` are operators or raw integer codes.
    """
    def code(value):
        return value if isinstance(value, int) else operation_code(value)
    features = np.array([(code(c1), code(c2)) for c1, c2, _ in pairs],
                        dtype=float).reshape(-1, 2)
    return features, np.array([label for _, _, label in pairs], dtype=int)


#: ``name: (rounds, target rows)``.  The target's key values are what
#: Fig. 4 scores against.
CASES = {
    "tie": ([rows(("+", "-", 1), ("+", "-", 0))],
            rows(("+", "-", 1))),
    "tie-across-rounds": ([rows(("+", "-", 1), ("*", "/", 0)),
                           rows(("+", "-", 0), ("*", "/", 0))],
                          rows(("+", "-", 0), ("*", "/", 1))),
    "single-class-one": ([rows(("+", "-", 1), ("+", "-", 1),
                               ("*", "/", 1))],
                         rows(("+", "-", 1), ("*", "/", 0))),
    "single-class-zero": ([rows(("-", "+", 0)), rows(("-", "+", 0))],
                          rows(("-", "+", 0), ("-", "+", 1))),
    "undecodable-codes": ([rows((NO_OPERATION, NO_OPERATION, 1),
                                (UNDECODABLE, "+", 0), ("+", "-", 1),
                                ("+", UNDECODABLE, 1),
                                (NO_OPERATION, NO_OPERATION, 1))],
                          rows((NO_OPERATION, NO_OPERATION, 1),
                               (UNDECODABLE, "+", 0), ("+", "-", 1))),
    "empty-round": ([rows(), rows(("+", "-", 1), ("-", "+", 0)), rows()],
                    rows(("+", "-", 1), ("-", "+", 0))),
    "only-empty-rounds": ([rows(), rows()],
                          rows(("+", "-", 1), ("*", "/", 0))),
    "unseen-target-pair": ([rows(("+", "-", 1), ("-", "+", 0),
                                 ("+", "-", 0), ("+", "-", 1),
                                 ("+", "-", 1))],
                           rows(("*", "/", 1), ("+", "-", 1), ("&", "|", 0),
                                ("-", "+", 1))),
}


def pooled(rounds):
    """``(features, labels)`` of all rounds in order."""
    features = np.vstack([features for features, _ in rounds])
    return features, np.concatenate([labels for _, labels in rounds])


def training_set(features, labels):
    """The training set of ``features``: its count table and one round."""
    if len(labels):
        data = GroupedRows.from_rows(features, labels)
    else:
        data = GroupedRows(np.zeros((0, 2)), np.zeros(0, dtype=np.intp),
                           np.zeros(0, dtype=np.intp),
                           np.zeros(0, dtype=int))
    return TrainingSet(data=data, rounds=1, bits_per_round=len(labels))


def majority_target(width):
    """A locked target with ``width`` key bits; its rows are patched in."""
    source = (f"module t (input [{width - 1}:0] k, input [7:0] a, "
              "output [7:0] y); assign y = a + k; endmodule")
    return Design(parse(source), key_port="k",
                  key_bits=[KeyBit(index=index, kind="constant",
                                   correct_value=index % 2)
                            for index in range(width)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_majority_attack_votes_like_the_row_loop(monkeypatch, name):
    rounds, (target_rows, target_labels) = CASES[name]
    features, labels = pooled(rounds)
    training = training_set(features, labels)
    monkeypatch.setattr(TrainingSetBuilder, "build",
                        lambda self, design: training)
    monkeypatch.setattr(LocalityExtractor, "extract_matrix",
                        lambda self, design, key_indices=None:
                        (target_rows, target_labels))
    result = MajorityVoteAttack(rng=random.Random(7)).attack(
        majority_target(len(target_rows)))

    votes = pair_votes(features, labels)
    majority = {pair: int(counts.get(1, 0) > counts.get(0, 0))
                for pair, counts in votes.items()}
    rng = random.Random(7)
    rng.getrandbits(64)  # the builder's seed
    expected = [majority[(row[0], row[1])] if (row[0], row[1]) in majority
                else rng.randint(0, 1) for row in target_rows]
    assert result.predicted_key == expected
    assert result.metadata["distinct_pairs"] == len(votes)
    assert result.training_size == len(labels)


def reference_pool(rounds):
    """Fig. 4's pool counted round by round with the row loop."""
    pool = ObservationPool(scenario="random")
    for features, labels in rounds:
        for codes, counts in pair_votes(features, labels).items():
            try:
                pair = (decode_operator(int(codes[0])),
                        decode_operator(int(codes[1])))
            except KeyError:
                continue
            pair_counts = pool.pair_label_counts.setdefault(pair, {})
            for label, count in counts.items():
                pair_counts[label] = pair_counts.get(label, 0) + count
                real_op = pair[0] if label == 1 else pair[1]
                pool.real_operator_counts[real_op] = (
                    pool.real_operator_counts.get(real_op, 0) + count)
    return pool


@pytest.mark.parametrize("name", sorted(CASES))
def test_figure4_pool_counts_like_the_row_loop(name):
    rounds, (target_rows, target_labels) = CASES[name]
    pool = ObservationPool(scenario="random")
    for features, labels in rounds:
        _accumulate_observations(pool, features, labels)
    reference = reference_pool(rounds)
    assert pool.pair_label_counts == reference.pair_label_counts
    assert pool.real_operator_counts == reference.real_operator_counts
    # No zero count becomes a key.
    assert all(count > 0 for counts in pool.pair_label_counts.values()
               for count in counts.values())
    assert (_replay_pair_majority(pool, target_rows, target_labels)
            == _replay_pair_majority(reference, target_rows, target_labels))


def test_cases_cover_ties_single_classes_undecodable_and_unseen_pairs():
    features, labels = pooled(CASES["unseen-target-pair"][0])
    seen = set(pair_votes(features, labels))
    target_rows, _ = CASES["unseen-target-pair"][1]
    assert any((row[0], row[1]) not in seen for row in target_rows)
    counts = pair_votes(*pooled(CASES["tie"][0]))
    assert list(counts.values()) == [{1: 1, 0: 1}]
    for name in ("single-class-one", "single-class-zero"):
        assert len(set(pooled(CASES[name][0])[1])) == 1
    codes = pooled(CASES["undecodable-codes"][0])[0]
    assert NO_OPERATION in codes and UNDECODABLE in codes
