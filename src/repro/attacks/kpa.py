"""Key Prediction Accuracy (KPA) — the attack-success metric of the paper.

``N %`` KPA means ``N %`` of the key bits were predicted correctly; a random
guess scores 50 % on average.  The helpers here compute KPA for single
designs, aggregate it over locked samples and benchmarks, and provide the
random-guess reference line of Fig. 6a.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: KPA of an ideal random guess (percent).
RANDOM_GUESS_KPA = 50.0


def kpa(predicted: Sequence[int], correct: Sequence[int]) -> float:
    """Key prediction accuracy in percent.

    Raises:
        ValueError: for empty or mismatched keys.
    """
    predicted_arr = np.asarray(predicted, dtype=int)
    correct_arr = np.asarray(correct, dtype=int)
    if correct_arr.size == 0:
        raise ValueError("correct key is empty")
    if predicted_arr.shape != correct_arr.shape:
        raise ValueError("predicted and correct keys must have equal length")
    return float(100.0 * np.mean(predicted_arr == correct_arr))


def functional_kpa(design, predicted: Sequence[int], vectors: int = 64,
                   rng: Optional[random.Random] = None) -> float:
    """Functional key prediction accuracy in percent.

    Bit-level KPA treats every key bit alike, but key bits differ in how much
    they matter functionally: a predicted key that gets the *influential*
    bits right restores more of the design's behaviour than its bit-level
    KPA suggests.  Functional KPA is the percentage of random input vectors
    on which the design under ``predicted`` produces exactly the outputs it
    produces under the correct key — 100 % means the prediction is
    functionally equivalent to the secret key on the tested vectors even if
    some (irrelevant) bits are wrong.

    Both key hypotheses evaluate as lanes of one bit-parallel sweep over the
    design's cached plan (:func:`repro.sim.sweep_differences`); designs the
    plan compiler cannot express fall back to a per-key scalar loop with
    identical numbers.

    Args:
        design: A locked :class:`~repro.rtlir.design.Design`.
        predicted: Predicted key bits, indexed by key position.
        vectors: Number of random input vectors to test.
        rng: Random source for the input vectors.

    Raises:
        ValueError: for unlocked designs, mismatched key lengths, or a
            non-positive vector count.
    """
    from ..sim import random_input_batch, sweep_differences

    if not design.is_locked:
        raise ValueError("functional KPA requires a locked design")
    correct = design.correct_key
    if len(predicted) != len(correct):
        raise ValueError("predicted and correct keys must have equal length")
    if vectors < 1:
        raise ValueError("vectors must be positive")
    rng = rng or random.Random()

    batch = random_input_batch(design, rng, vectors)
    differences = sweep_differences(design, batch,
                                    keys=[correct, list(predicted)], n=vectors)
    return 100.0 * (vectors - differences.lanes[0]) / vectors


@dataclass
class KpaSample:
    """KPA of one attacked locked sample."""

    design_name: str
    algorithm: str
    value: float
    key_width: int
    metadata: Dict[str, object] = field(default_factory=dict)


@dataclass
class KpaAggregate:
    """Aggregated KPA statistics over a group of samples."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "KpaAggregate":
        """Aggregate a list of per-sample KPA values.

        Raises:
            ValueError: for an empty value list.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot aggregate an empty KPA list")
        return cls(mean=float(arr.mean()), std=float(arr.std()),
                   minimum=float(arr.min()), maximum=float(arr.max()),
                   count=int(arr.size))


def aggregate_by(samples: Sequence[KpaSample],
                 key: str = "algorithm") -> Dict[str, KpaAggregate]:
    """Group samples by ``design_name`` or ``algorithm`` and aggregate each group."""
    if key not in ("design_name", "algorithm"):
        raise ValueError("key must be 'design_name' or 'algorithm'")
    groups: Dict[str, List[float]] = {}
    for sample in samples:
        groups.setdefault(getattr(sample, key), []).append(sample.value)
    return {name: KpaAggregate.from_values(values) for name, values in groups.items()}
