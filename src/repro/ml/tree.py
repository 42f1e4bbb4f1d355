"""CART-style decision tree classifier.

The tree grows greedily on the Gini impurity with axis-aligned threshold
splits, supports depth / minimum-sample constraints, optional per-split
feature subsampling (used by the random forest), and exposes impurity-based
feature importances.  It fits from the (distinct row x class) count table of
its training set and predicts each distinct query row once, so its cost
follows the number of distinct rows rather than the number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import Estimator, GroupedRows, check_features, group_rows


@dataclass
class _TreeNode:
    """Internal tree node (leaf when ``feature`` is None)."""

    prediction: np.ndarray            # class probability vector at this node
    feature: Optional[int] = None     # split feature index
    threshold: float = 0.0            # split threshold (go left when <=)
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(class_counts: np.ndarray) -> float:
    total = class_counts.sum()
    if total == 0:
        return 0.0
    proportions = class_counts / total
    return float(1.0 - np.sum(proportions ** 2))


class DecisionTreeClassifier(Estimator):
    """Greedy CART decision tree.

    The tree fits from the count table of its training set
    (:class:`~repro.ml.base.GroupedRows`): every node holds distinct rows and
    their per-class counts, and a split is scored on the counts summed per
    feature value.  It grows the same tree as a walk over the rows, because
    the counts are the same integers, the candidate thresholds are the same
    midpoints in the same order, and the feature subsample is drawn at the
    same nodes (for finite features; NaNs count as one value here).

    Args:
        max_depth: Maximum tree depth (None for unlimited).
        min_samples_split: Minimum samples required to attempt a split.
        min_samples_leaf: Minimum samples required in each child.
        max_features: Number of features considered per split (None = all;
            ``"sqrt"`` = square root of the feature count).
        random_state: Seed controlling the feature subsampling.
    """

    row_wise = True

    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 random_state: Optional[int] = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # ---------------------------------------------------------------- fitting

    def fit(self, features, labels) -> "DecisionTreeClassifier":
        """Grow the tree on the training data."""
        return self.fit_grouped(GroupedRows.from_rows(features, labels))

    def fit_grouped(self, data: GroupedRows) -> "DecisionTreeClassifier":
        """Grow the tree on the count table of a grouped training set."""
        self.classes_ = data.classes
        self.n_features_ = data.distinct.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self.feature_importances_ = np.zeros(self.n_features_)
        self._root = self._grow(data.distinct, data.counts(), depth=0)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        return self

    def _n_split_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        return max(1, min(int(self.max_features), self.n_features_))

    def _grow(self, rows: np.ndarray, table: np.ndarray, depth: int) -> _TreeNode:
        """Grow a node on distinct ``rows`` with their per-class ``table``."""
        counts = table.sum(axis=0).astype(float)
        n_samples = int(table.sum())
        prediction = counts / counts.sum()
        node = _TreeNode(prediction=prediction)

        if (self.max_depth is not None and depth >= self.max_depth) \
                or n_samples < self.min_samples_split \
                or np.count_nonzero(counts) == 1:
            return node

        split = self._best_split(rows, table, counts, n_samples)
        if split is None:
            return node
        feature, threshold, gain, left_mask = split
        self.feature_importances_[feature] += gain * n_samples

        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(rows[left_mask], table[left_mask], depth + 1)
        node.right = self._grow(rows[~left_mask], table[~left_mask], depth + 1)
        return node

    def _best_split(self, rows: np.ndarray, table: np.ndarray,
                    counts: np.ndarray, n_samples: int):
        """The best ``(feature, threshold, gain, left mask)``, or None.

        A split's gain depends only on the class counts on either side, so
        the candidates are the midpoints between adjacent distinct values
        of a feature, scored on the cumulative counts of the values up to
        them.  The counts are integers, so they equal the ones a walk over
        the sorted rows would add up.
        """
        parent_impurity = _gini(counts)
        best = None
        best_gain = 1e-12

        candidate_features = self._rng.permutation(self.n_features_)[
            :self._n_split_features()]
        for feature in candidate_features:
            values = rows[:, feature]
            distinct_values, positions = np.unique(values, return_inverse=True)
            per_value = np.zeros((len(distinct_values), table.shape[1]),
                                 dtype=table.dtype)
            np.add.at(per_value, positions, table)
            cumulative = np.cumsum(per_value, axis=0)
            for position in range(len(distinct_values) - 1):
                n_left = int(cumulative[position].sum())
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                left_counts = cumulative[position].astype(float)
                right_counts = counts - left_counts
                impurity = (n_left * _gini(left_counts)
                            + n_right * _gini(right_counts)) / n_samples
                gain = parent_impurity - impurity
                if gain > best_gain:
                    threshold = (distinct_values[position]
                                 + distinct_values[position + 1]) / 2.0
                    best_gain = gain
                    best = (int(feature), float(threshold), float(gain),
                            values <= threshold)
        return best

    # ------------------------------------------------------------- prediction

    def predict_proba(self, features) -> np.ndarray:
        """Return class probabilities from the reached leaves.

        Each distinct row walks the tree once; duplicates share its leaf.
        """
        self._check_fitted("_root")
        matrix = check_features(features, n_features=self.n_features_)
        distinct, inverse = group_rows(matrix)
        probabilities = np.zeros((distinct.shape[0], len(self.classes_)))
        for row, values in enumerate(distinct):
            node = self._root
            while not node.is_leaf:
                if values[node.feature] <= node.threshold:
                    node = node.left
                else:
                    node = node.right
            probabilities[row] = node.prediction
        return probabilities[inverse]

    def depth(self) -> int:
        """Return the depth of the fitted tree."""
        self._check_fitted("_root")

        def _depth(node: _TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)
