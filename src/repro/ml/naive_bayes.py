"""Naive Bayes classifiers: Gaussian and categorical variants.

The categorical variant is particularly well matched to the SnapShot
localities, whose features are operator codes — it directly models
``P(operator pair | key value)``, which is the statistical signal the attack
exploits.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import (Estimator, GroupedRows, check_features, check_features_labels,
                   encode_labels)


class GaussianNB(Estimator):
    """Gaussian naive Bayes with per-class feature means and variances.

    Args:
        var_smoothing: Fraction of the largest feature variance added to all
            variances for numerical stability.
    """

    row_wise = True

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        self.var_smoothing = var_smoothing

    def fit(self, features, labels) -> "GaussianNB":
        """Estimate per-class means, variances and priors."""
        matrix, label_arr = check_features_labels(features, labels)
        self.classes_, encoded = encode_labels(label_arr)
        n_classes = len(self.classes_)
        n_features = matrix.shape[1]
        self.n_features_ = n_features

        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        self.priors_ = np.zeros(n_classes)
        for code in range(n_classes):
            rows = matrix[encoded == code]
            self.theta_[code] = rows.mean(axis=0)
            self.var_[code] = rows.var(axis=0)
            self.priors_[code] = rows.shape[0] / matrix.shape[0]
        self.var_ += self.var_smoothing * max(float(matrix.var(axis=0).max()), 1e-12)
        return self

    def predict_proba(self, features) -> np.ndarray:
        """Return posterior class probabilities."""
        self._check_fitted("theta_")
        matrix = check_features(features, n_features=self.n_features_)
        log_likelihood = np.zeros((matrix.shape[0], len(self.classes_)))
        for code in range(len(self.classes_)):
            diff = matrix - self.theta_[code]
            log_prob = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[code]) + diff ** 2 / self.var_[code],
                axis=1,
            )
            log_likelihood[:, code] = np.log(self.priors_[code] + 1e-12) + log_prob
        shifted = log_likelihood - log_likelihood.max(axis=1, keepdims=True)
        probabilities = np.exp(shifted)
        return probabilities / probabilities.sum(axis=1, keepdims=True)


class CategoricalNB(Estimator):
    """Categorical naive Bayes with Laplace smoothing.

    Every feature is treated as a categorical variable over the values seen
    during training; unseen values at prediction time fall back to the
    smoothed uniform probability.

    Args:
        alpha: Laplace smoothing strength.
    """

    row_wise = True

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha

    def fit(self, features, labels) -> "CategoricalNB":
        """Count category/class co-occurrences per feature."""
        return self.fit_grouped(GroupedRows.from_rows(features, labels))

    def fit_grouped(self, data: GroupedRows) -> "CategoricalNB":
        """Sum the count table per feature category.

        The sums are integers, so they equal the counts of a walk over the
        rows.
        """
        table = data.counts()
        self.classes_ = data.classes
        self.n_features_ = data.distinct.shape[1]

        self.priors_ = table.sum(axis=0) / data.n_samples
        self.categories_: List[np.ndarray] = []
        self.log_prob_: List[np.ndarray] = []
        for column in range(self.n_features_):
            categories, positions = np.unique(data.distinct[:, column],
                                              return_inverse=True)
            counts = np.zeros((len(self.classes_), len(categories)),
                              dtype=table.dtype)
            np.add.at(counts.T, positions, table)
            smoothed = counts + self.alpha
            probabilities = smoothed / smoothed.sum(axis=1, keepdims=True)
            self.categories_.append(categories)
            self.log_prob_.append(np.log(probabilities))
        return self

    def predict_proba(self, features) -> np.ndarray:
        """Return posterior class probabilities."""
        self._check_fitted("priors_")
        matrix = check_features(features, n_features=self.n_features_)
        n_classes = len(self.classes_)
        log_posterior = np.tile(np.log(self.priors_ + 1e-12), (matrix.shape[0], 1))
        # One column's terms are added to every row at once, in column
        # order, so each element sees the same additions as a row loop.
        for column in range(self.n_features_):
            categories = self.categories_[column]
            log_prob = self.log_prob_[column]
            values = matrix[:, column]
            # categories_ is sorted (np.unique): look each value up by
            # bisection and keep only exact matches.
            positions = np.minimum(np.searchsorted(categories, values),
                                   len(categories) - 1)
            seen = categories[positions] == values
            # Unseen category -> uniform smoothed probability.
            fallback = np.log(np.full(n_classes, 1.0 / log_prob.shape[1]))
            log_posterior += np.where(seen[:, None], log_prob[:, positions].T,
                                      fallback)
        shifted = log_posterior - log_posterior.max(axis=1, keepdims=True)
        probabilities = np.exp(shifted)
        return probabilities / probabilities.sum(axis=1, keepdims=True)
