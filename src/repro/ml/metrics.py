"""Classification accuracy for model selection."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def accuracy(true_labels: Sequence, predicted: Sequence) -> float:
    """Fraction of correctly predicted labels.

    Raises:
        ValueError: for empty or mismatched inputs.
    """
    true_arr = np.asarray(true_labels)
    pred_arr = np.asarray(predicted)
    if true_arr.shape != pred_arr.shape:
        raise ValueError("true and predicted labels must have equal shape")
    if true_arr.size == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float(np.mean(true_arr == pred_arr))

