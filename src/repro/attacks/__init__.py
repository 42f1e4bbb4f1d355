"""Oracle-less attacks on RTL locking.

* :class:`~repro.attacks.snapshot.Attack` — the frame of every attack: it
  refuses an unlocked target and scores the predicted key into an
  :class:`~repro.attacks.snapshot.AttackResult`.
* :class:`~repro.attacks.snapshot.SnapShotAttack` — the paper's ML-driven
  structural attack adapted to RTL.
* :class:`~repro.attacks.baselines.MajorityVoteAttack`,
  :class:`~repro.attacks.baselines.PairAsymmetryAttack`,
  :class:`~repro.attacks.baselines.RandomGuessAttack` — non-ML baselines.
* :class:`~repro.attacks.locality.LocalityExtractor` — a design's
  ``[C1, C2]`` localities as one matrix;
  :class:`~repro.attacks.relock.TrainingSetBuilder` — the relocked rows as
  one count table (:attr:`~repro.attacks.relock.TrainingSet.data`).
* :mod:`~repro.attacks.kpa` — the Key Prediction Accuracy metric.
"""

from .baselines import (MajorityVoteAttack, PairAsymmetryAttack,
                        RandomGuessAttack)
from .kpa import (
    RANDOM_GUESS_KPA,
    KpaAggregate,
    KpaSample,
    aggregate_by,
    functional_kpa,
    kpa,
)
from .locality import FEATURE_SETS, LocalityExtractor
from .relock import TrainingSet, TrainingSetBuilder
from .snapshot import Attack, AttackResult, SnapShotAttack

__all__ = [
    "MajorityVoteAttack",
    "PairAsymmetryAttack",
    "RandomGuessAttack",
    "RANDOM_GUESS_KPA",
    "KpaAggregate",
    "KpaSample",
    "aggregate_by",
    "functional_kpa",
    "kpa",
    "FEATURE_SETS",
    "LocalityExtractor",
    "TrainingSet",
    "TrainingSetBuilder",
    "Attack",
    "AttackResult",
    "SnapShotAttack",
]
