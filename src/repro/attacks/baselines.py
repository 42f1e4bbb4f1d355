"""Non-ML baseline attacks used for comparison and for the leakage study.

* :class:`RandomGuessAttack` — the 50 % KPA reference line.
* :class:`MajorityVoteAttack` — a table-lookup attacker that memorises, for
  every observed operation pair, the majority key value seen in the
  self-referencing training set.  This is the simplest data-driven attacker
  and captures the statistical signal the ML models learn.
* :class:`PairAsymmetryAttack` — the analytical attack of Section 3.2: with
  the original (asymmetric) ASSURE pair table, observing the pair ``{T, T'}``
  where only ``(T, T')`` exists in the table reveals that ``T`` is the real
  operation — no training required.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from ..locking.pairs import ORIGINAL_ASSURE_TABLE, PairTable
from ..rtlir.design import Design
from ..rtlir.operations import NO_OPERATION, decode_operator
from .locality import LocalityExtractor
from .relock import TrainingSetBuilder
from .snapshot import Attack, AttackResult


class RandomGuessAttack(Attack):
    """Predict every key bit by an unbiased coin flip."""

    name = "random-guess"

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.rng = rng or random.Random()

    def _attack(self, target: Design, algorithm: str) -> AttackResult:
        predicted = [self.rng.randint(0, 1) for _ in range(target.key_width)]
        return self.score(target, predicted, 0,
                          metadata={"locking_algorithm": algorithm})


class MajorityVoteAttack(Attack):
    """Lookup-table attacker over observed operation pairs.

    The attacker relocks the target (like SnapShot) but instead of training a
    model it simply records, for every observed ``(C1, C2)`` pair, which key
    value occurred more often (the training set's count table,
    :attr:`~repro.attacks.relock.TrainingSet.data`), and replays that
    majority on the target.

    Only a strict majority of 1s predicts 1, so a pair seen equally often
    with key values 0 and 1 predicts 0.  Fig. 4's
    :func:`~repro.eval.figures._replay_pair_majority` counts the same pairs
    but scores such a tie 0.5; stored records depend on both rules.
    """

    name = "majority-vote"

    def __init__(self, rounds: int = 20,
                 pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.rounds = rounds
        self.pair_table = pair_table
        self.rng = rng or random.Random()

    def _attack(self, target: Design, algorithm: str) -> AttackResult:
        """Build the pair-majority table from relocking and predict the key."""
        builder = TrainingSetBuilder(rounds=self.rounds,
                                     pair_table=self.pair_table,
                                     rng=random.Random(self.rng.getrandbits(64)))
        data = builder.build(target).data
        votes = np.zeros((len(data.distinct), 2), dtype=int)
        votes[:, data.classes] = data.counts()
        majority = {(row[0], row[1]): int(ones > zeros)
                    for row, (zeros, ones) in zip(data.distinct, votes)}

        target_features, _ = LocalityExtractor().extract_matrix(target)
        predicted = []
        for row in target_features:
            pair = (row[0], row[1])
            if pair in majority:
                predicted.append(majority[pair])
            else:
                predicted.append(self.rng.randint(0, 1))
        return self.score(target, predicted, data.n_samples,
                          metadata={"locking_algorithm": algorithm,
                                    "distinct_pairs": len(majority)})


class PairAsymmetryAttack(Attack):
    """The training-free attack against the leaky ASSURE pair table (Sec. 3.2).

    Args:
        pair_table: The pair table the attacker assumes the defender used
            (the original, asymmetric ASSURE table by default).
        rng: Random source for pairs that the table cannot disambiguate.
    """

    name = "pair-asymmetry"

    def __init__(self, pair_table: PairTable = ORIGINAL_ASSURE_TABLE,
                 rng: Optional[random.Random] = None) -> None:
        self.pair_table = pair_table
        self.rng = rng or random.Random()

    def _attack(self, target: Design, algorithm: str) -> AttackResult:
        """Predict each key bit from pair-table asymmetry alone."""
        features, _ = LocalityExtractor().extract_matrix(target)
        predicted: List[int] = []
        resolved = 0
        for row in features:
            decision = self._decide(row[0], row[1])
            if decision is None:
                predicted.append(self.rng.randint(0, 1))
            else:
                predicted.append(decision)
                resolved += 1
        return self.score(
            target, predicted, 0,
            metadata={"locking_algorithm": algorithm,
                      "resolved_bits": resolved,
                      "resolved_fraction": resolved / max(len(features), 1)})

    def _decide(self, true_code: float, false_code: float) -> Optional[int]:
        """Return the key value revealed by table asymmetry, or None."""
        if true_code == NO_OPERATION or false_code == NO_OPERATION:
            return None
        try:
            true_op = decode_operator(int(true_code))
            false_op = decode_operator(int(false_code))
        except KeyError:
            return None
        # ``(real, dummy)`` exists in the table exactly when ``dummy_of(real)
        # == dummy``.  If only one orientation of the observed pair exists,
        # the real operation — and therefore the key value — is revealed.
        true_is_real = (self.pair_table.has_pair(true_op)
                        and self.pair_table.dummy_of(true_op) == false_op)
        false_is_real = (self.pair_table.has_pair(false_op)
                         and self.pair_table.dummy_of(false_op) == true_op)
        if true_is_real and not false_is_real:
            return 1
        if false_is_real and not true_is_real:
            return 0
        return None


# ---------------------------------------------------------------------------
# Registry factories (see repro.api)
# ---------------------------------------------------------------------------

from ..api.registry import register_attack  # noqa: E402


@register_attack("majority", aliases=("majority-vote",))
def _make_majority(rng: random.Random, rounds: int = 20,
                   pair_table: Optional[PairTable] = None,
                   **_: object) -> MajorityVoteAttack:
    """Pair-majority table-lookup baseline."""
    return MajorityVoteAttack(rounds=rounds, pair_table=pair_table, rng=rng)


@register_attack("random", aliases=("random-guess",))
def _make_random_guess(rng: random.Random, **_: object) -> RandomGuessAttack:
    """The 50 % KPA random-guess reference attack."""
    return RandomGuessAttack(rng)


@register_attack("pair-asymmetry")
def _make_pair_asymmetry(rng: random.Random,
                         pair_table: Optional[PairTable] = None,
                         **_: object) -> PairAsymmetryAttack:
    """Training-free attack against asymmetric pair tables (Section 3.2)."""
    return PairAsymmetryAttack(pair_table=pair_table or ORIGINAL_ASSURE_TABLE,
                               rng=rng)
