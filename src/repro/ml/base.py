"""Base classes and utilities for the from-scratch ML substrate.

The SnapShot attack needs a competent tabular classifier chosen automatically
under a small time budget (the paper uses auto-sklearn).  This package
provides a compact, dependency-free (NumPy only) implementation of the usual
suspects — logistic regression, decision trees, random forests, k-NN, naive
Bayes, boosting and a small MLP — sharing the scikit-learn-style
``fit``/``predict``/``predict_proba`` interface defined here.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when ``predict`` is called before ``fit``."""


class Estimator:
    """Base class for all classifiers.

    Subclasses must implement :meth:`fit` and :meth:`predict_proba` (or
    :meth:`predict`) and should store every constructor argument as a public
    attribute of the same name so :meth:`get_params`/:meth:`clone` work.
    """

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "Estimator":
        """Fit the model.  Must be overridden."""
        raise NotImplementedError

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict class labels (argmax of :meth:`predict_proba` by default)."""
        probabilities = self.predict_proba(features)
        indices = np.argmax(probabilities, axis=1)
        return self.classes_[indices]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Predict class probabilities.  Must be overridden unless ``predict`` is."""
        raise NotImplementedError

    # ------------------------------------------------------------- parameters

    def get_params(self) -> Dict[str, Any]:
        """Return constructor parameters (scikit-learn convention)."""
        signature = inspect.signature(type(self).__init__)
        params = {}
        for name in signature.parameters:
            if name in ("self", "args", "kwargs"):
                continue
            if hasattr(self, name):
                params[name] = getattr(self, name)
        return params

    def clone(self) -> "Estimator":
        """Return an unfitted copy with the same parameters."""
        return type(self)(**copy.deepcopy(self.get_params()))

    # ---------------------------------------------------------------- helpers

    def _check_fitted(self, attribute: str = "classes_") -> None:
        if not hasattr(self, attribute):
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before calling predict")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def check_features_labels(features: Sequence, labels: Sequence
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and convert a training set to float/label arrays.

    Raises:
        ValueError: on empty input, dimensionality problems or length mismatch.
    """
    feature_array = np.asarray(features, dtype=float)
    label_array = np.asarray(labels)
    if feature_array.ndim == 1:
        feature_array = feature_array.reshape(-1, 1)
    if feature_array.ndim != 2:
        raise ValueError("features must be a 2D array (samples x features)")
    if feature_array.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    if label_array.ndim != 1:
        raise ValueError("labels must be a 1D array")
    if feature_array.shape[0] != label_array.shape[0]:
        raise ValueError(
            f"feature/label length mismatch: {feature_array.shape[0]} vs "
            f"{label_array.shape[0]}")
    return feature_array, label_array


def check_features(features: Sequence, n_features: Optional[int] = None) -> np.ndarray:
    """Validate and convert a feature matrix for prediction."""
    feature_array = np.asarray(features, dtype=float)
    if feature_array.ndim == 1:
        feature_array = feature_array.reshape(-1, 1)
    if feature_array.ndim != 2:
        raise ValueError("features must be a 2D array (samples x features)")
    if n_features is not None and feature_array.shape[1] != n_features:
        raise ValueError(
            f"expected {n_features} features, got {feature_array.shape[1]}")
    return feature_array


def encode_labels(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Map arbitrary labels to contiguous integer codes.

    Returns:
        ``(classes, encoded)`` where ``classes`` is the sorted unique label
        array and ``encoded[i]`` is the index of ``labels[i]`` in ``classes``.
    """
    classes, encoded = np.unique(labels, return_inverse=True)
    return classes, encoded


def one_hot(encoded: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot encode integer class codes."""
    matrix = np.zeros((encoded.shape[0], n_classes), dtype=float)
    matrix[np.arange(encoded.shape[0]), encoded] = 1.0
    return matrix


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / np.sum(exponentials, axis=-1, keepdims=True)
