"""Oracle-less attacks on RTL locking.

* :class:`~repro.attacks.snapshot.SnapShotAttack` — the paper's ML-driven
  structural attack adapted to RTL.
* :class:`~repro.attacks.baselines.MajorityVoteAttack`,
  :class:`~repro.attacks.baselines.PairAsymmetryAttack`,
  :class:`~repro.attacks.baselines.RandomGuessAttack` — non-ML baselines.
* :mod:`~repro.attacks.kpa` — the Key Prediction Accuracy metric.
"""

from .baselines import MajorityVoteAttack, PairAsymmetryAttack, RandomGuessAttack
from .kpa import (
    RANDOM_GUESS_KPA,
    KpaAggregate,
    KpaSample,
    aggregate_by,
    average_kpa,
    functional_kpa,
    kpa,
)
from .locality import FEATURE_SETS, Locality, LocalityExtractor
from .relock import TrainingSet, TrainingSetBuilder
from .snapshot import AttackResult, SnapShotAttack

__all__ = [
    "MajorityVoteAttack",
    "PairAsymmetryAttack",
    "RandomGuessAttack",
    "RANDOM_GUESS_KPA",
    "KpaAggregate",
    "KpaSample",
    "aggregate_by",
    "average_kpa",
    "functional_kpa",
    "kpa",
    "FEATURE_SETS",
    "Locality",
    "LocalityExtractor",
    "TrainingSet",
    "TrainingSetBuilder",
    "AttackResult",
    "SnapShotAttack",
]
