"""Training-set construction by self-referencing (relocking).

The oracle-less SnapShot attack cannot query a working chip, so it creates its
own labelled data: the locked *target* design is relocked again and again with
fresh random keys (which the attacker chose, hence knows), and the localities
of those new key bits become labelled training samples (Fig. 2 of the paper,
"Relocking" / "Extraction" steps).

The paper relocks with *random* ASSURE selection "so that all parts of the
design were used for learning"; :class:`TrainingSetBuilder` follows that
default.  The target is copied once per attack, and every round is applied
to, extracted from and undone on one :class:`~repro.locking.base.LockingSession`
over that copy.  A round costs only its own actions:

* ``add_pair`` clones the real operation's operands structurally and swaps
  one literal to widen the key port;
* extraction reads the round's key bits from the round's actions and an
  :class:`~repro.attacks.locality.OperationIndex` of the target built once
  per attack (:meth:`~repro.attacks.locality.LocalityExtractor.extract_round`),
  not from a walk of the whole design;
* undo pops each action's dummy off the tails of the operation registry.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..locking.assure import AssureLocker
from ..locking.base import LockingSession
from ..locking.pairs import PairTable
from ..rtlir.design import Design
from .locality import LocalityExtractor, OperationIndex

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
        extractor: Locality extractor (shared with the deployment step so the
            feature space matches).
        relock_budget: Key bits added per relocking round; defaults to the
            number of key bits already present in the target (i.e. the same
            budget the defender used).
        rounds: Number of relocking rounds.
        pair_table: Pair table used for relocking (the attacker knows the
            locking scheme, threat-model assumption 2).
        rng: Random source.
    """

    def __init__(self, extractor: Optional[LocalityExtractor] = None,
                 relock_budget: Optional[int] = None, rounds: int = 20,
                 pair_table: Optional[PairTable] = None,
                 rng: Optional[random.Random] = None) -> None:
        if rounds < 1:
            raise ValueError("at least one relocking round is required")
        self.extractor = extractor or LocalityExtractor()
        self.relock_budget = relock_budget
        self.rounds = rounds
        self.pair_table = pair_table
        self.rng = rng or random.Random()

    def build(self, target: Design,
              progress: Optional[Callable[[int, int], None]] = None
              ) -> TrainingSet:
        """Relock ``target`` ``rounds`` times and extract labelled localities.

        Simulation-backed feature sets (``behavioral``) evaluate all of a
        round's fresh key bits as lanes of a single bit-parallel key sweep
        (:func:`repro.locking.metrics.key_bit_sensitivity`), one pass per
        round instead of one pass per key bit; the relocked design's plan
        comes from the process-wide cache shared with the deployment and
        validation steps.

        The training set is bit-identical to relocking a fresh copy of the
        target every round; ``target`` itself is never mutated.

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
        budget = self.relock_budget or target.key_width
        # One copy, one session and one operation index per attack: every
        # round relocks the session, extracts its new key bits from its own
        # actions and is then undone, which leaves the session exactly as a
        # fresh one over the target.
        session = LockingSession(target.copy(), pair_table=self.pair_table)
        index = OperationIndex(session.design)

        feature_blocks: List[np.ndarray] = []
        label_blocks: List[np.ndarray] = []
        for round_index in range(self.rounds):
            locker = AssureLocker(
                selection="random",
                pair_table=self.pair_table,
                rng=random.Random(self.rng.getrandbits(64)),
                track_metrics=False,
            )
            with session.tentative():
                actions = locker.relock(session, key_budget=budget)
                features, labels = self.extractor.extract_round(index, actions)
            feature_blocks.append(features)
            label_blocks.append(labels)
            if progress is not None:
                try:
                    progress(round_index + 1, self.rounds)
                except Exception:
                    _log.warning("progress hook raised on round %d/%d; "
                                 "continuing", round_index + 1, self.rounds,
                                 exc_info=True)

        features = np.vstack(feature_blocks) if feature_blocks else np.zeros((0, self.extractor.n_features))
        labels = np.concatenate(label_blocks) if label_blocks else np.zeros((0,), dtype=int)
        return TrainingSet(features=features, labels=labels, rounds=self.rounds,
                           bits_per_round=budget)
