"""AdaBoost (SAMME) over shallow decision trees."""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from .base import Estimator, GroupedRows, check_features, group_rows
from .tree import DecisionTreeClassifier


class AdaBoostClassifier(Estimator):
    """SAMME AdaBoost with decision stumps (or shallow trees) as weak learners.

    Args:
        n_estimators: Maximum number of boosting rounds.
        max_depth: Depth of each weak learner (1 = decision stump).
        learning_rate: Shrinkage applied to each learner's weight.
        random_state: Seed for the weak learners' feature sampling.
    """

    row_wise = True

    def __init__(self, n_estimators: int = 50, max_depth: int = 1,
                 learning_rate: float = 1.0,
                 random_state: Optional[int] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.random_state = random_state

    def fit(self, features, labels) -> "AdaBoostClassifier":
        """Run boosting rounds, reweighting misclassified samples."""
        return self.fit_grouped(GroupedRows.from_rows(features, labels))

    def fit_grouped(self, data: GroupedRows) -> "AdaBoostClassifier":
        """Boost on the rows of a grouped training set.

        The sample weights stay per row.  Each learner fits on the count
        table of its weighted resample and predicts each distinct row once.
        """
        self.classes_ = data.classes
        encoded = data.codes
        n_classes = len(self.classes_)
        self.n_features_ = data.distinct.shape[1]
        n_samples = data.n_samples
        coded = replace(data, classes=np.arange(n_classes))
        rng = np.random.default_rng(self.random_state)

        weights = np.full(n_samples, 1.0 / n_samples)
        self.estimators_: List[DecisionTreeClassifier] = []
        self.estimator_weights_: List[float] = []

        for _ in range(self.n_estimators):
            # Weighted fitting via weighted resampling keeps the tree code simple.
            indices = rng.choice(n_samples, size=n_samples, replace=True, p=weights)
            learner = DecisionTreeClassifier(
                max_depth=self.max_depth,
                random_state=int(rng.integers(0, 2 ** 31 - 1)),
            )
            learner.fit_grouped(coded.subset(indices))
            predictions = learner.predict(data.distinct)[data.groups]

            incorrect = predictions != encoded
            error = float(np.sum(weights * incorrect))
            if error >= 1.0 - 1.0 / n_classes:
                # Weak learner is no better than chance; stop boosting.
                break
            error = max(error, 1e-12)
            alpha = self.learning_rate * (
                np.log((1.0 - error) / error) + np.log(n_classes - 1.0)
            )
            self.estimators_.append(learner)
            self.estimator_weights_.append(float(alpha))
            if error <= 1e-12:
                break

            weights = weights * np.exp(alpha * incorrect)
            weights /= weights.sum()

        if not self.estimators_:
            # Fall back to a single unweighted learner so predict always works.
            learner = DecisionTreeClassifier(max_depth=self.max_depth,
                                             random_state=self.random_state)
            learner.fit_grouped(coded)
            self.estimators_.append(learner)
            self.estimator_weights_.append(1.0)
        return self

    def predict_proba(self, features) -> np.ndarray:
        """Return normalised weighted votes as class probabilities."""
        self._check_fitted("estimators_")
        matrix = check_features(features, n_features=self.n_features_)
        distinct, inverse = group_rows(matrix)
        n_classes = len(self.classes_)
        rows = np.arange(distinct.shape[0])
        votes = np.zeros((distinct.shape[0], n_classes))
        for learner, weight in zip(self.estimators_, self.estimator_weights_):
            votes[rows, learner.predict(distinct).astype(int)] += weight
        total = votes.sum(axis=1, keepdims=True)
        total[total == 0.0] = 1.0
        return (votes / total)[inverse]
