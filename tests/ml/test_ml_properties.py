"""Property-based tests for the ML substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.ml import CategoricalNB, DecisionTreeClassifier, GaussianNB, accuracy
from repro.ml.base import one_hot, softmax

_float_matrices = npst.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 20), st.integers(1, 4)),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)


class TestNumericProperties:
    @given(_float_matrices)
    @settings(max_examples=100, deadline=None)
    def test_softmax_is_a_distribution(self, matrix):
        probabilities = softmax(matrix)
        assert np.allclose(probabilities.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probabilities >= 0.0)

    @given(_float_matrices, st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_softmax_is_shift_invariant(self, matrix, shift):
        assert np.allclose(softmax(matrix + shift), softmax(matrix),
                           atol=1e-12)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_one_hot_rows(self, codes):
        matrix = one_hot(np.array(codes), 5)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix.argmax(axis=1) == np.array(codes))


class TestMetricProperties:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=50), st.data())
    @settings(max_examples=100, deadline=None)
    def test_accuracy_bounds_and_self_accuracy(self, labels, data):
        predictions = data.draw(st.lists(st.integers(0, 1),
                                         min_size=len(labels),
                                         max_size=len(labels)))
        value = accuracy(labels, predictions)
        assert 0.0 <= value <= 1.0
        assert accuracy(labels, labels) == 1.0


class TestClassifierProperties:
    @given(
        npst.arrays(dtype=float, shape=st.tuples(st.integers(6, 30), st.just(2)),
                    elements=st.floats(-5, 5, allow_nan=False)),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_predictions_are_valid_labels(self, features, data):
        labels = np.array(data.draw(st.lists(st.integers(0, 1),
                                             min_size=features.shape[0],
                                             max_size=features.shape[0])))
        for model in (DecisionTreeClassifier(max_depth=3), GaussianNB(),
                      CategoricalNB()):
            model.fit(features, labels)
            predictions = model.predict(features)
            assert set(np.unique(predictions)) <= set(np.unique(labels))
            probabilities = model.predict_proba(features)
            assert np.allclose(probabilities.sum(axis=1), 1.0, atol=1e-6)

    @given(st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_tree_fits_constant_features(self, n_samples, seed):
        rng = np.random.default_rng(seed)
        features = np.ones((n_samples, 3))
        labels = rng.integers(0, 2, size=n_samples)
        tree = DecisionTreeClassifier().fit(features, labels)
        # No split is possible; the tree must fall back to the majority class.
        majority = int(np.round(labels.mean())) if labels.mean() != 0.5 else None
        predictions = tree.predict(features)
        assert len(set(predictions)) == 1
        if majority is not None:
            assert predictions[0] == majority
