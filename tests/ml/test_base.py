"""Unit tests for the ML base utilities."""

import inspect

import numpy as np
import pytest

from repro.ml.base import (
    Estimator,
    NotFittedError,
    check_features,
    check_features_labels,
    encode_labels,
    one_hot,
    softmax,
)
from repro.ml import AutoMLClassifier, DecisionTreeClassifier, GaussianNB, default_candidates

_ROSTER = default_candidates(random_state=0)


class TestValidation:
    def test_check_features_labels_happy_path(self):
        features, labels = check_features_labels([[1, 2], [3, 4]], [0, 1])
        assert features.shape == (2, 2)
        assert labels.shape == (2,)

    def test_1d_features_promoted(self):
        features, _ = check_features_labels([1, 2, 3], [0, 1, 0])
        assert features.shape == (3, 1)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            check_features_labels(np.zeros((0, 2)), np.zeros((0,)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_features_labels([[1], [2]], [0])

    def test_check_features_dimension_enforced(self):
        with pytest.raises(ValueError):
            check_features([[1, 2]], n_features=3)


class TestEncodings:
    def test_encode_labels(self):
        classes, encoded = encode_labels(np.array(["b", "a", "b"]))
        assert list(classes) == ["a", "b"]
        assert list(encoded) == [1, 0, 1]

    def test_one_hot(self):
        matrix = one_hot(np.array([0, 2, 1]), 3)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert matrix[1, 2] == 1.0


class TestNumerics:
    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
        probabilities = softmax(logits)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert not np.any(np.isnan(probabilities))

    def test_softmax_of_equal_logits_is_uniform(self):
        probabilities = softmax(np.zeros((2, 4)))
        assert np.array_equal(probabilities, np.full((2, 4), 0.25))


class TestEstimatorInterface:
    def test_get_params_and_clone(self):
        model = DecisionTreeClassifier(max_depth=3, min_samples_leaf=2)
        params = model.get_params()
        assert params["max_depth"] == 3
        clone = model.clone()
        assert clone is not model
        assert clone.get_params() == params

    @pytest.mark.parametrize("factory", [spec.factory for spec in _ROSTER]
                             + [lambda: AutoMLClassifier(time_budget=2, random_state=0)],
                             ids=[spec.name for spec in _ROSTER] + ["automl"])
    def test_clone_is_unfitted_with_every_constructor_param(self, factory):
        model = factory()
        init_params = set(inspect.signature(type(model).__init__).parameters) - {"self"}
        assert set(model.get_params()) == init_params
        model.fit(np.array([[0, 1], [1, 0], [0, 0], [1, 1]] * 3),
                  np.array([0, 1, 0, 1] * 3))
        clone = model.clone()
        assert type(clone) is type(model)
        assert clone.get_params() == model.get_params()
        assert not hasattr(clone, "classes_")

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GaussianNB().predict([[1.0, 2.0]])

    def test_base_estimator_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Estimator().fit(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(NotImplementedError):
            Estimator().predict_proba(np.zeros((2, 2)))
