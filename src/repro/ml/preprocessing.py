"""Feature preprocessing: scaling and categorical encoding.

The SnapShot localities are small vectors of categorical operator codes plus a
few numeric context features; the transformers here put them into the shape
the different classifiers prefer (one-hot for linear models and the MLP,
raw codes for trees and naive Bayes).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .base import NotFittedError, check_features


class StandardScaler:
    """Standardise features to zero mean and unit variance."""

    def fit(self, features: Sequence) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        matrix = check_features(features)
        self.mean_ = matrix.mean(axis=0)
        self.scale_ = matrix.std(axis=0)
        self.scale_[self.scale_ == 0.0] = 1.0
        return self

    def transform(self, features: Sequence) -> np.ndarray:
        """Apply the learned standardisation."""
        if not hasattr(self, "mean_"):
            raise NotFittedError("StandardScaler must be fitted before transform")
        matrix = check_features(features, n_features=self.mean_.shape[0])
        return (matrix - self.mean_) / self.scale_

    def fit_transform(self, features: Sequence) -> np.ndarray:
        """Fit and immediately transform."""
        return self.fit(features).transform(features)


class OneHotEncoder:
    """One-hot encode integer/categorical feature columns.

    Unknown categories encountered at transform time map to the all-zero
    vector for that column (the model simply sees "none of the known
    categories"), which is the behaviour the attack needs when a relocked
    training set misses an operator that appears in the target.
    """

    def fit(self, features: Sequence) -> "OneHotEncoder":
        """Learn the category set of every column."""
        matrix = np.asarray(features)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        self.categories_: List[np.ndarray] = [
            np.unique(matrix[:, column]) for column in range(matrix.shape[1])
        ]
        return self

    def transform(self, features: Sequence) -> np.ndarray:
        """Expand every column into its one-hot indicator block."""
        if not hasattr(self, "categories_"):
            raise NotFittedError("OneHotEncoder must be fitted before transform")
        matrix = np.asarray(features)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        if matrix.shape[1] != len(self.categories_):
            raise ValueError(
                f"expected {len(self.categories_)} columns, got {matrix.shape[1]}")
        blocks = []
        for column, categories in enumerate(self.categories_):
            block = np.zeros((matrix.shape[0], categories.shape[0]), dtype=float)
            for position, category in enumerate(categories):
                block[:, position] = (matrix[:, column] == category).astype(float)
            blocks.append(block)
        return np.hstack(blocks) if blocks else np.zeros((matrix.shape[0], 0))

    def fit_transform(self, features: Sequence) -> np.ndarray:
        """Fit and immediately transform."""
        return self.fit(features).transform(features)

