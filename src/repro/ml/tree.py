"""CART-style decision tree classifier.

The tree grows greedily on the Gini impurity with axis-aligned threshold
splits, supports depth / minimum-sample constraints, optional per-split
feature subsampling (used by the random forest), and exposes impurity-based
feature importances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import Estimator, check_features, check_features_labels, encode_labels


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

    Args:
        max_depth: Maximum tree depth (None for unlimited).
        min_samples_split: Minimum samples required to attempt a split.
        min_samples_leaf: Minimum samples required in each child.
        max_features: Number of features considered per split (None = all;
            ``"sqrt"`` = square root of the feature count).
        random_state: Seed controlling the feature subsampling.
    """

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
        matrix, label_arr = check_features_labels(features, labels)
        self.classes_, encoded = encode_labels(label_arr)
        self.n_features_ = matrix.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self.feature_importances_ = np.zeros(self.n_features_)
        self._root = self._grow(matrix, encoded, depth=0)
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

    def _grow(self, matrix: np.ndarray, encoded: np.ndarray, depth: int) -> _TreeNode:
        counts = np.bincount(encoded, minlength=len(self.classes_)).astype(float)
        prediction = counts / counts.sum()
        node = _TreeNode(prediction=prediction)

        if (self.max_depth is not None and depth >= self.max_depth) \
                or matrix.shape[0] < self.min_samples_split \
                or np.unique(encoded).size == 1:
            return node

        split = self._best_split(matrix, encoded, counts)
        if split is None:
            return node
        feature, threshold, gain, left_mask = split
        self.feature_importances_[feature] += gain * matrix.shape[0]

        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(matrix[left_mask], encoded[left_mask], depth + 1)
        node.right = self._grow(matrix[~left_mask], encoded[~left_mask], depth + 1)
        return node

    def _best_split(self, matrix: np.ndarray, encoded: np.ndarray,
                    counts: np.ndarray):
        n_samples = matrix.shape[0]
        parent_impurity = _gini(counts)
        best = None
        best_gain = 1e-12

        candidate_features = self._rng.permutation(self.n_features_)[
            :self._n_split_features()]
        for feature in candidate_features:
            values = matrix[:, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            sorted_labels = encoded[order]

            left_counts = np.zeros_like(counts)
            right_counts = counts.copy()
            for position in range(n_samples - 1):
                label = sorted_labels[position]
                left_counts[label] += 1
                right_counts[label] -= 1
                if sorted_values[position] == sorted_values[position + 1]:
                    continue
                n_left = position + 1
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                impurity = (n_left * _gini(left_counts)
                            + n_right * _gini(right_counts)) / n_samples
                gain = parent_impurity - impurity
                if gain > best_gain:
                    threshold = (sorted_values[position] + sorted_values[position + 1]) / 2.0
                    best_gain = gain
                    best = (int(feature), float(threshold), float(gain),
                            values <= threshold)
        return best

    # ------------------------------------------------------------- prediction

    def predict_proba(self, features) -> np.ndarray:
        """Return class probabilities from the reached leaves."""
        self._check_fitted("_root")
        matrix = check_features(features, n_features=self.n_features_)
        probabilities = np.zeros((matrix.shape[0], len(self.classes_)))
        for row in range(matrix.shape[0]):
            node = self._root
            while not node.is_leaf:
                if matrix[row, node.feature] <= node.threshold:
                    node = node.left
                else:
                    node = node.right
            probabilities[row] = node.prediction
        return probabilities

    def depth(self) -> int:
        """Return the depth of the fitted tree."""
        self._check_fitted("_root")

        def _depth(node: _TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)
