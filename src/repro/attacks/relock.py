"""Training-set construction by self-referencing (relocking).

The oracle-less SnapShot attack cannot query a working chip, so it creates its
own labelled data: the locked *target* design is relocked again and again with
fresh random keys (which the attacker chose, hence knows), and the localities
of those new key bits become labelled training samples (Fig. 2 of the paper,
"Relocking" / "Extraction" steps).

The paper relocks with *random* ASSURE selection "so that all parts of the
design were used for learning"; :class:`TrainingSetBuilder` follows that
default.  Every round is undone before the next, so each round starts from
the target itself.  The rows are built at the type level, from each round's
rng draws over the target's candidate operation types
(:meth:`TrainingSetBuilder.build`): no design copy, no session and no AST
edit, and still bit-identical to relocking a fresh copy of the target every
round.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..locking.assure import random_round_draws
from ..locking.pairs import PairTable, default_pair_table
from ..rtlir.design import Design
from .locality import operation_code

_log = logging.getLogger(__name__)


@dataclass
class TrainingSet:
    """Labelled localities assembled from relocked copies of the target."""

    features: np.ndarray
    labels: np.ndarray
    rounds: int
    bits_per_round: int

    @property
    def size(self) -> int:
        """Number of training samples."""
        return int(self.features.shape[0])

    def label_balance(self) -> float:
        """Fraction of samples with label 1 (0.5 = perfectly balanced)."""
        if self.labels.size == 0:
            return 0.0
        return float(np.mean(self.labels == 1))


class TrainingSetBuilder:
    """Build a SnapShot training set by relocking the target design.

    Args:
        relock_budget: Key bits added per relocking round (positive);
            defaults to the number of key bits already present in the target
            (i.e. the same budget the defender used).
        rounds: Number of relocking rounds.
        pair_table: Pair table used for relocking (the attacker knows the
            locking scheme, threat-model assumption 2).
        rng: Random source.
    """

    def __init__(self, relock_budget: Optional[int] = None, rounds: int = 20,
                 pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None) -> None:
        if rounds < 1:
            raise ValueError("at least one relocking round is required")
        if relock_budget is not None and relock_budget < 1:
            raise ValueError("relock_budget must be positive")
        self.relock_budget = relock_budget
        self.rounds = rounds
        self.pair_table = pair_table
        self.rng = rng or random.Random()

    def build(self, target: Design,
              progress: Optional[Callable[[int, int], None]] = None
              ) -> TrainingSet:
        """Relock ``target`` ``rounds`` times and extract labelled localities.

        A row is the code of the locked operation and the code of its dummy,
        swapped when the drawn key value is 0, and that value is its label.
        Every round is undone before the next, so all rounds choose from the
        same candidates: the target's sites that are not key-controlled and
        have a pair, in registry order.  Replaying each round's rng draws
        (:func:`~repro.locking.assure.random_round_draws`) over those
        candidates' codes therefore yields exactly the rows that relocking a
        fresh copy of the target every round and extracting the new key
        bits' localities would; ``target`` itself is never mutated.

        Args:
            target: The locked design to self-reference against.
            progress: Optional callback invoked as ``progress(done, rounds)``
                after every relocking round — long sweeps (the paper uses
                1000 rounds) can report liveness without threading state
                through the attack.  A raising hook is logged and ignored:
                an observer must not abort the sweep.

        Raises:
            ValueError: if the target is not locked (there is nothing to
                self-reference against).
        """
        if not target.is_locked:
            raise ValueError("the target design must be locked")
        budget = (target.key_width if self.relock_budget is None
                  else self.relock_budget)
        table = self.pair_table or default_pair_table()
        codes = np.array(
            [(operation_code(site.op), operation_code(table.dummy_of(site.op)))
             for site in target.sites()
             if not site.key_controlled and table.has_pair(site.op)],
            dtype=float).reshape(-1, 2)
        positions: List[int] = []
        values: List[int] = []
        for round_index in range(self.rounds):
            draws = random_round_draws(random.Random(self.rng.getrandbits(64)),
                                       len(codes), budget)
            positions.extend(position for position, _ in draws)
            values.extend(value for _, value in draws)
            _report_progress(progress, round_index + 1, self.rounds)
        labels = np.array(values, dtype=int)
        picked = codes[np.array(positions, dtype=int)]
        features = np.where(labels[:, None] == 1, picked, picked[:, ::-1])
        return TrainingSet(features=features, labels=labels, rounds=self.rounds,
                           bits_per_round=budget)


def _report_progress(progress: Optional[Callable[[int, int], None]],
                     done: int, rounds: int) -> None:
    """Call ``progress(done, rounds)``; a raising hook is logged and ignored."""
    if progress is None:
        return
    try:
        progress(done, rounds)
    except Exception:
        _log.warning("progress hook raised on round %d/%d; continuing",
                     done, rounds, exc_info=True)
