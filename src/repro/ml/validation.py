"""Cross-validation fold generator."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np


class KFold:
    """K-fold cross-validation index generator over a shuffled sample order.

    Args:
        n_splits: Number of folds (>= 2).
        rng: NumPy random generator that draws the shuffle.
    """

    def __init__(self, n_splits: int = 5,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.rng = rng or np.random.default_rng()

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` for each fold.

        Raises:
            ValueError: when there are fewer samples than folds.
        """
        if n_samples < self.n_splits:
            raise ValueError("cannot split fewer samples than folds")
        indices = self.rng.permutation(n_samples)
        folds = np.array_split(indices, self.n_splits)
        for position in range(self.n_splits):
            test_indices = folds[position]
            train_indices = np.concatenate(
                [folds[i] for i in range(self.n_splits) if i != position])
            yield train_indices, test_indices

