"""Unit tests for classification metrics."""

import numpy as np
import pytest

from repro.ml.metrics import accuracy


class TestAccuracy:
    def test_perfect_and_zero(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert accuracy([1, 0, 1], [0, 1, 0]) == 0.0

    def test_partial(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_string_labels(self):
        assert accuracy(["+", "-", "*"], ["+", "*", "*"]) == pytest.approx(2 / 3)

    def test_numpy_inputs(self):
        assert accuracy(np.array([0, 1, 1, 1]), np.array([0, 1, 1, 0])) == 0.75
