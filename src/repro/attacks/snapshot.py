"""The RTL adaptation of the SnapShot attack (Fig. 2 of the paper).

The attack is oracle-less and purely structural:

1. **Relocking** — the locked target is relocked many times with fresh keys
   (self-referencing) to create labelled samples.
2. **Extraction** — for every key bit a locality ``[K[i], C1, C2]`` is
   extracted (:mod:`repro.attacks.locality`).
3. **Training** — an auto-ML model (:class:`repro.ml.AutoMLClassifier` by
   default, the auto-sklearn substitute) is trained to associate localities
   with key values.
4. **Deployment** — the model predicts the target's key bits; success is
   measured with KPA.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..locking.pairs import PairTable
from ..ml.automl import AutoMLClassifier
from ..ml.base import Estimator
from ..rtlir.design import Design
from .kpa import kpa
from .locality import LocalityExtractor
from .relock import TrainingSet, TrainingSetBuilder

#: Cap on the training localities handed to the model; a larger training set
#: is subsampled uniformly.  The statistical signal (operation-pair
#: frequencies) is kept while the model-search cost stays bounded on very
#: large targets.
MAX_TRAINING_SAMPLES = 20000


@dataclass
class AttackResult:
    """Outcome of one SnapShot attack on one locked design.

    Attributes:
        design_name: Name of the attacked design.
        predicted_key: Predicted key-bit values, indexed by key position.
        correct_key: The true key (known to the experiment, not the attacker).
        kpa: Key prediction accuracy in percent.
        model_name: Identifier of the trained model (auto-ML winner).
        training_size: Number of training localities used.
        per_bit_correct: Boolean list, one entry per key bit.
        metadata: Extra run information (rounds, budgets, ...).
        functional_kpa: Percentage of test vectors on which the predicted key
            reproduces the correct key's outputs exactly (simulation-based;
            ``None`` unless the attack ran with ``functional_vectors > 0``).
    """

    design_name: str
    predicted_key: List[int]
    correct_key: List[int]
    kpa: float
    model_name: str
    training_size: int
    per_bit_correct: List[bool] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    functional_kpa: Optional[float] = None

    @property
    def key_width(self) -> int:
        """Number of attacked key bits."""
        return len(self.correct_key)


class Attack:
    """The frame every attack shares; an attack states how it predicts.

    :meth:`attack` refuses an unlocked target and hands the rest to the
    subclass's ``_attack(target, algorithm)``, which returns
    :meth:`score` of its predicted key.
    """

    #: The ``model_name`` :meth:`score` reports by default.
    name: str

    def attack(self, target: Design,
               algorithm: Optional[str] = None) -> AttackResult:
        """Attack one locked design and score its predicted key.

        Args:
            target: The locked design under attack.
            algorithm: Optional name of the locking algorithm (recorded in
                the result metadata as ``locking_algorithm``).

        Raises:
            ValueError: if the target design is not locked.
        """
        if not target.is_locked:
            raise ValueError("the target design must be locked")
        return self._attack(target, algorithm or "unknown")

    def _attack(self, target: Design, algorithm: str) -> AttackResult:
        raise NotImplementedError

    def score(self, target: Design, predicted: List[int], training_size: int,
              metadata: Dict[str, object], model_name: Optional[str] = None,
              functional_kpa: Optional[float] = None) -> AttackResult:
        """The result of predicting ``predicted`` for the target's key.

        ``correct_key``, ``kpa`` and ``per_bit_correct`` are read off the
        target's correct key; ``model_name`` defaults to the attack's name.
        """
        correct = target.correct_key
        return AttackResult(
            design_name=target.name,
            predicted_key=predicted,
            correct_key=correct,
            kpa=kpa(predicted, correct),
            model_name=self.name if model_name is None else model_name,
            training_size=training_size,
            per_bit_correct=[p == c for p, c in zip(predicted, correct)],
            metadata=metadata,
            functional_kpa=functional_kpa,
        )


class SnapShotAttack(Attack):
    """Oracle-less, ML-driven structural attack on RTL operation locking.

    Args:
        model: Classifier trained on the localities.  Defaults to a fresh
            :class:`~repro.ml.automl.AutoMLClassifier` per attack (mirroring
            the per-iteration auto-ml search of the paper).
        rounds: Relocking rounds used to assemble the training set (the paper
            uses 1000; the default here is laptop-friendly and configurable).
            Each round adds as many key bits as the target has.
        pair_table: Pair table assumed by the attacker for relocking.
        time_budget: Auto-ML search budget in roster candidates, cheapest
            first (only used for the default model).  The search has no
            wall-clock deadline, so the attack result is a pure function of
            the target and ``rng``.  At most :data:`MAX_TRAINING_SAMPLES`
            training localities reach the model.
        functional_vectors: When positive, the predicted key is additionally
            validated functionally: the target is simulated under the
            predicted and the correct key as one key sweep over this many
            shared input vectors (both hypotheses ride the target's cached
            compiled plan, with point-invariant work hoisted out of the
            per-key lanes) and the match rate is reported as
            :attr:`AttackResult.functional_kpa`.  0 (the default) skips the
            simulation entirely.
        rng: Random source.
    """

    name = "snapshot-rtl"

    def __init__(self, model: Optional[Estimator] = None, rounds: int = 20,
                 pair_table: Optional[PairTable] = None,
                 time_budget: float = 10.0,
                 functional_vectors: int = 0,
                 rng: Optional[random.Random] = None) -> None:
        if functional_vectors < 0:
            raise ValueError("functional_vectors must be non-negative")
        self.model = model
        self.rounds = rounds
        self.pair_table = pair_table
        self.time_budget = time_budget
        self.functional_vectors = functional_vectors
        self.rng = rng or random.Random()

    # ------------------------------------------------------------------ steps

    def build_training_set(self, target: Design) -> TrainingSet:
        """Step 1+2: relock the target and extract labelled localities."""
        builder = TrainingSetBuilder(
            rounds=self.rounds,
            pair_table=self.pair_table,
            rng=random.Random(self.rng.getrandbits(64)),
        )
        return builder.build(target)

    def train_model(self, training_set: TrainingSet) -> Estimator:
        """Step 3: fit the (auto-ML) model on the training localities."""
        if self.model is not None:
            model = self.model.clone()
        else:
            model = AutoMLClassifier(
                time_budget=self.time_budget,
                random_state=self.rng.randrange(2 ** 31),
            )
        features, labels = training_set.features, training_set.labels
        if features.shape[0] > MAX_TRAINING_SAMPLES:
            generator = np.random.default_rng(self.rng.randrange(2 ** 31))
            keep = generator.choice(features.shape[0],
                                    size=MAX_TRAINING_SAMPLES,
                                    replace=False)
            features, labels = features[keep], labels[keep]
        model.fit(features, labels)
        return model

    def predict_key(self, model: Estimator, target: Design) -> List[int]:
        """Step 4: extract the target localities and predict its key bits."""
        features, _ = LocalityExtractor().extract_matrix(target)
        predictions = model.predict(features)
        return [int(v) for v in predictions]

    # ------------------------------------------------------------------ attack

    def _attack(self, target: Design, algorithm: str) -> AttackResult:
        """Run the full attack flow against one locked design."""
        training_set = self.build_training_set(target)
        model = self.train_model(training_set)
        predicted = self.predict_key(model, target)
        functional = self.validate_functionally(target, predicted)
        model_name = getattr(model, "best_model_name", type(model).__name__)
        return self.score(
            target, predicted, training_set.size,
            metadata={
                "rounds": training_set.rounds,
                "relock_budget": training_set.bits_per_round,
                # The only feature set; kept so records keep their shape.
                "feature_set": "pair",
                "locking_algorithm": algorithm,
                "training_label_balance": training_set.label_balance(),
            },
            model_name=str(model_name), functional_kpa=functional)

    def validate_functionally(self, target: Design,
                              predicted: Sequence[int]) -> Optional[float]:
        """Simulate the predicted key against the correct one.

        Both keys evaluate as lanes of one bit-parallel sweep over the
        target's plan, which comes from the process-wide cache — repeated
        validations of one target (and any metric or equivalence check on
        it) share a single compilation.  Designs the plan compiler cannot
        express fall back to the scalar oracle per key.

        Returns ``None`` when functional validation is disabled
        (``functional_vectors == 0``) or the design cannot be simulated at
        all (e.g. a combinational cycle).  The validation rng is derived
        from the target and prediction instead of ``self.rng`` so that
        enabling validation never shifts the random stream the attack steps
        draw from — bit-level KPA results stay identical either way.
        """
        if self.functional_vectors <= 0:
            return None
        from ..sim import SimulationError
        from .kpa import functional_kpa
        seed = zlib.crc32(
            f"{target.name}/{''.join(str(int(b)) for b in predicted)}"
            .encode())
        try:
            return functional_kpa(
                target, list(predicted), vectors=self.functional_vectors,
                rng=random.Random(seed))
        except SimulationError:
            return None


# ---------------------------------------------------------------------------
# Registry factory (see repro.api)
# ---------------------------------------------------------------------------

from ..api.registry import register_attack  # noqa: E402


@register_attack("snapshot", aliases=("snapshot-rtl",))
def _make_snapshot(rng: random.Random, rounds: int = 20,
                   pair_table: Optional[PairTable] = None,
                   time_budget: float = 10.0,
                   functional_vectors: int = 0,
                   **_: object) -> SnapShotAttack:
    """The paper's ML-driven structural attack adapted to RTL."""
    return SnapShotAttack(rounds=rounds, pair_table=pair_table,
                          time_budget=time_budget,
                          functional_vectors=functional_vectors, rng=rng)
