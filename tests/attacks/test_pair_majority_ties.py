"""The two pair-majority rules on a pair seen equally often with key 0 and 1.

``MajorityVoteAttack`` predicts 0 for such a tie (``round(0.5)`` rounds half
to even); Fig. 4's replay of the pair-majority rule scores it 0.5.  Stored
records depend on both rules, so each is pinned here.
"""

import random

import numpy as np
import pytest

from repro.attacks import MajorityVoteAttack
from repro.attacks.locality import LocalityExtractor, operation_code
from repro.attacks.relock import TrainingSet, TrainingSetBuilder
from repro.bench import plus_network
from repro.eval.figures import ObservationPool, _replay_pair_majority
from repro.locking import AssureLocker
from repro.ml.base import GroupedRows


def majority_vote_on_tie(monkeypatch, correct_value):
    """Key bit the ``majority`` attack predicts for a tied target pair."""
    target = AssureLocker("serial", rng=random.Random(0)).lock(
        plus_network(4, name="plus4"), 1).design
    target.key_bits[0].correct_value = correct_value
    row, = LocalityExtractor().extract_matrix(target)[0]
    tied = TrainingSet(data=GroupedRows.from_rows(np.array([row, row]),
                                                  np.array([0, 1])),
                       rounds=1, bits_per_round=2)
    monkeypatch.setattr(TrainingSetBuilder, "build", lambda self, design: tied)
    result = MajorityVoteAttack(rounds=1, rng=random.Random(1)).attack(target)
    assert result.metadata["distinct_pairs"] == 1
    (predicted,) = result.predicted_key
    return predicted


def figure4_replay_on_tie(monkeypatch, correct_value):
    """Score Fig. 4's pair-majority replay gives one tied test key bit."""
    pool = ObservationPool(scenario="random",
                           pair_label_counts={("+", "-"): {0: 3, 1: 3}})
    features = np.array([[operation_code("+"), operation_code("-")]])
    return _replay_pair_majority(pool, features, np.array([correct_value]))


TIE_RULES = [
    ("majority-vote-predicts-0", majority_vote_on_tie, 0),
    ("figure4-replay-scores-half", figure4_replay_on_tie, 0.5),
]


@pytest.mark.parametrize("correct_value", [0, 1])
@pytest.mark.parametrize("rule, expected",
                         [(rule, expected) for _, rule, expected in TIE_RULES],
                         ids=[name for name, _, _ in TIE_RULES])
def test_tied_pair_rule(monkeypatch, rule, expected, correct_value):
    assert rule(monkeypatch, correct_value) == expected
