"""k-nearest-neighbour classifier."""

from __future__ import annotations

import numpy as np

from .base import Estimator, check_features, check_features_labels, encode_labels


class KNeighborsClassifier(Estimator):
    """Majority-vote k-NN with Euclidean or Manhattan distance.

    Args:
        n_neighbors: Number of neighbours considered.
        metric: ``euclidean`` or ``manhattan``.
        weights: ``uniform`` or ``distance`` (inverse-distance weighting).
    """

    def __init__(self, n_neighbors: int = 5, metric: str = "euclidean",
                 weights: str = "uniform") -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be positive")
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unsupported metric {metric!r}")
        if weights not in ("uniform", "distance"):
            raise ValueError(f"unsupported weighting {weights!r}")
        self.n_neighbors = n_neighbors
        self.metric = metric
        self.weights = weights

    def fit(self, features, labels) -> "KNeighborsClassifier":
        """Store the training set (k-NN is a lazy learner)."""
        matrix, label_arr = check_features_labels(features, labels)
        self.classes_, self._encoded = encode_labels(label_arr)
        self._train = matrix
        self.n_features_ = matrix.shape[1]
        return self

    def _distances(self, queries: np.ndarray) -> np.ndarray:
        if self.metric == "euclidean":
            # ||q - t||^2 = ||q||^2 + ||t||^2 - 2 q.t  — avoids materialising
            # the (queries x train x features) difference tensor.
            squared = (
                np.sum(queries ** 2, axis=1)[:, None]
                + np.sum(self._train ** 2, axis=1)[None, :]
                - 2.0 * queries @ self._train.T
            )
            return np.sqrt(np.maximum(squared, 0.0))
        diff = np.abs(queries[:, None, :] - self._train[None, :, :])
        return np.sum(diff, axis=2)

    #: Maximum number of query rows processed per distance block; bounds the
    #: peak memory of the pairwise distance computation.
    _CHUNK_ROWS = 64

    def predict_proba(self, features) -> np.ndarray:
        """Return neighbourhood vote shares as class probabilities."""
        self._check_fitted("_train")
        queries = check_features(features, n_features=self.n_features_)
        probabilities = np.zeros((queries.shape[0], len(self.classes_)))
        for start in range(0, queries.shape[0], self._CHUNK_ROWS):
            chunk = queries[start:start + self._CHUNK_ROWS]
            probabilities[start:start + self._CHUNK_ROWS] = self._chunk_proba(chunk)
        return probabilities

    def _chunk_proba(self, queries: np.ndarray) -> np.ndarray:
        distances = self._distances(queries)
        k = min(self.n_neighbors, self._train.shape[0])
        neighbour_indices = np.argpartition(distances, k - 1, axis=1)[:, :k]

        probabilities = np.zeros((queries.shape[0], len(self.classes_)))
        for row in range(queries.shape[0]):
            indices = neighbour_indices[row]
            if self.weights == "distance":
                weights = 1.0 / (distances[row, indices] + 1e-9)
            else:
                weights = np.ones(len(indices))
            for index, weight in zip(indices, weights):
                probabilities[row, self._encoded[index]] += weight
            probabilities[row] /= probabilities[row].sum()
        return probabilities
