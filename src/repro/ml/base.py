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
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when ``predict`` is called before ``fit``."""


class Estimator:
    """Base class for all classifiers.

    Subclasses must implement :meth:`fit` and :meth:`predict_proba` (or
    :meth:`predict`) and should store every constructor argument as a public
    attribute of the same name so :meth:`get_params`/:meth:`clone` work.
    """

    #: True when a row's predictions depend on that row's values alone, bit
    #: for bit, so a caller may predict each distinct row once and scatter
    #: the result back to its duplicates.
    row_wise = False

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "Estimator":
        """Fit the model.  Must be overridden."""
        raise NotImplementedError

    def fit_grouped(self, data: "GroupedRows") -> "Estimator":
        """Fit on a grouped training set.

        The default fits on the rows the groups stand for, which are the
        original rows bit for bit; estimators that fit from counts override
        it.
        """
        return self.fit(data.rows(), data.labels())

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


def group_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of a float matrix exactly.

    Rows are compared by their bit patterns after one lexsort, so
    ``distinct[inverse]`` reproduces ``matrix`` bit for bit.

    Returns:
        ``(distinct, inverse)``: the distinct rows in lexicographic order of
        their bits, and the index into ``distinct`` of every row.
    """
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.uint64)
    n_rows = bits.shape[0]
    order = (np.lexsort(bits.T[::-1]) if bits.shape[1]
             else np.arange(n_rows))
    ordered = bits[order]
    starts = np.ones(n_rows, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(n_rows, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return matrix[order[starts]], inverse


@dataclass(frozen=True)
class GroupedRows:
    """A labelled training set as a table of distinct rows.

    Row ``i`` of the set is ``distinct[groups[i]]`` with label
    ``classes[codes[i]]``.  Every distinct row and every class occurs at
    least once, so ``classes`` is what :func:`encode_labels` returns for the
    set's labels.

    Attributes:
        distinct: The distinct rows, ``(n_groups, n_features)``.
        groups: Index into ``distinct`` of every row.
        codes: Index into ``classes`` of every row's label.
        classes: The sorted labels present.
    """

    distinct: np.ndarray
    groups: np.ndarray
    codes: np.ndarray
    classes: np.ndarray

    @classmethod
    def from_rows(cls, features: Sequence, labels: Sequence) -> "GroupedRows":
        """Validate a training set (:func:`check_features_labels`) and group it."""
        matrix, label_array = check_features_labels(features, labels)
        classes, codes = encode_labels(label_array)
        distinct, groups = group_rows(matrix)
        return cls(distinct, groups, codes, classes)

    @property
    def n_samples(self) -> int:
        """Number of rows the set stands for."""
        return int(self.groups.shape[0])

    def subset(self, indices: Union[np.ndarray, slice]) -> "GroupedRows":
        """The rows at ``indices``, without the groups and classes they miss."""
        groups = self.groups[indices]
        codes = self.codes[indices]
        rows_present = np.bincount(groups, minlength=len(self.distinct)) > 0
        classes_present = np.bincount(codes, minlength=len(self.classes)) > 0
        return GroupedRows(self.distinct[rows_present],
                           (np.cumsum(rows_present) - 1)[groups],
                           (np.cumsum(classes_present) - 1)[codes],
                           self.classes[classes_present])

    def counts(self) -> np.ndarray:
        """``(n_groups, n_classes)`` integer count of each (row, label) pair."""
        n_classes = len(self.classes)
        return np.bincount(self.groups * n_classes + self.codes,
                           minlength=len(self.distinct) * n_classes
                           ).reshape(len(self.distinct), n_classes)

    def rows(self) -> np.ndarray:
        """The rows of the set, in order."""
        return self.distinct[self.groups]

    def labels(self) -> np.ndarray:
        """The labels of the set, in order."""
        return self.classes[self.codes]


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
