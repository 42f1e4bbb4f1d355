"""Random forest: bagged decision trees with per-split feature subsampling.

The forest groups its training rows once; each tree's bootstrap draw over
the rows becomes counts over those groups, so a tree costs what its count
table costs and not what its rows cost.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from .base import Estimator, GroupedRows, check_features, group_rows
from .tree import DecisionTreeClassifier


class RandomForestClassifier(Estimator):
    """Bootstrap-aggregated decision trees.

    Args:
        n_estimators: Number of trees.
        max_depth: Depth limit for each tree.
        min_samples_leaf: Minimum samples per leaf in each tree.
        max_features: Features considered per split (default ``"sqrt"``).
        bootstrap: Sample the training set with replacement for each tree.
        random_state: Seed for bootstrapping and per-tree feature sampling.
    """

    row_wise = True

    def __init__(self, n_estimators: int = 50, max_depth: Optional[int] = None,
                 min_samples_leaf: int = 1, max_features="sqrt",
                 bootstrap: bool = True,
                 random_state: Optional[int] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, features, labels) -> "RandomForestClassifier":
        """Fit every tree on its own bootstrap sample."""
        return self.fit_grouped(GroupedRows.from_rows(features, labels))

    def fit_grouped(self, data: GroupedRows) -> "RandomForestClassifier":
        """Fit every tree on the count table of its bootstrap sample.

        The sample is drawn over rows and reaches the tree as counts over
        the groups it hit.  Trees are fitted on label codes.
        """
        self.classes_ = data.classes
        self.n_features_ = data.distinct.shape[1]
        coded = replace(data, classes=np.arange(len(data.classes)))
        rng = np.random.default_rng(self.random_state)
        n_samples = data.n_samples

        self.estimators_: List[DecisionTreeClassifier] = []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
            else:
                indices = np.arange(n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2 ** 31 - 1)),
            )
            tree.fit_grouped(coded.subset(indices))
            self.estimators_.append(tree)

        importances = np.zeros(self.n_features_)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict_proba(self, features) -> np.ndarray:
        """Average the class probabilities of all trees, per distinct row."""
        self._check_fitted("estimators_")
        matrix = check_features(features, n_features=self.n_features_)
        distinct, inverse = group_rows(matrix)
        # Trees were fitted on integer-encoded labels 0..n_classes-1; their
        # classes_ may omit codes absent from a bootstrap sample, so align.
        n_classes = len(self.classes_)
        aggregate = np.zeros((distinct.shape[0], n_classes))
        for tree in self.estimators_:
            probabilities = tree.predict_proba(distinct)
            for column, code in enumerate(tree.classes_):
                aggregate[:, int(code)] += probabilities[:, column]
        return (aggregate / len(self.estimators_))[inverse]
