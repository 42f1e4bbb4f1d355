"""Unit tests for feature preprocessing."""

import numpy as np
import pytest

from repro.ml import OneHotEncoder, StandardScaler
from repro.ml.base import NotFittedError


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        data = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]])
        scaled = StandardScaler().fit_transform(data)
        assert np.allclose(scaled.mean(axis=0), 0.0)
        assert np.allclose(scaled.std(axis=0), 1.0)

    def test_constant_column_does_not_divide_by_zero(self):
        data = np.array([[2.0, 1.0], [2.0, 3.0]])
        scaled = StandardScaler().fit_transform(data)
        assert np.all(np.isfinite(scaled))
        assert np.allclose(scaled[:, 0], 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform([[1.0]])

    def test_transform_uses_training_statistics(self):
        scaler = StandardScaler().fit([[0.0], [10.0]])
        assert scaler.transform([[5.0]])[0, 0] == pytest.approx(0.0)


class TestOneHotEncoder:
    def test_basic_expansion(self):
        data = np.array([[1, 10], [2, 10], [1, 20]])
        encoder = OneHotEncoder().fit(data)
        expanded = encoder.transform(data)
        # Column 0 has 2 categories, column 1 has 2 categories -> 4 outputs.
        assert expanded.shape == (3, 4)
        assert np.allclose(expanded.sum(axis=1), 2.0)

    def test_unknown_category_maps_to_zero_block(self):
        encoder = OneHotEncoder().fit([[1], [2]])
        expanded = encoder.transform([[3]])
        assert np.allclose(expanded, 0.0)

    def test_column_count_mismatch_rejected(self):
        encoder = OneHotEncoder().fit([[1, 2]])
        with pytest.raises(ValueError):
            encoder.transform([[1]])

    def test_1d_input_promoted(self):
        encoder = OneHotEncoder().fit([1, 2, 3])
        assert encoder.transform([2]).shape == (1, 3)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            OneHotEncoder().transform([[1]])
