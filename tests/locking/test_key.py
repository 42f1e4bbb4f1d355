"""Unit tests for key utilities."""

import random

import pytest

from repro.sim.vectors import random_key
from tests.helpers import flip_bits


class TestGeneration:
    def test_random_key_width_and_values(self):
        key = random_key(32, random.Random(0))
        assert len(key) == 32
        assert set(key) <= {0, 1}

    def test_random_key_deterministic_with_seed(self):
        assert random_key(16, random.Random(7)) == random_key(16, random.Random(7))

    def test_zero_width(self):
        assert random_key(0, random.Random(0)) == []

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            random_key(-1, random.Random(0))


class TestComparison:
    def test_flip_bits(self):
        assert flip_bits([0, 0, 0], [0, 2]) == [1, 0, 1]
        with pytest.raises(IndexError):
            flip_bits([0, 0], [5])

    @pytest.mark.parametrize("key,positions,expected", [
        pytest.param([1, 0, 1], [], [1, 0, 1], id="no-positions-copies"),
        pytest.param([1, 0, 1], [1], [1, 1, 1], id="single-bit"),
        pytest.param([1, 1], [0, 0], [1, 1], id="repeated-position-cancels"),
        pytest.param([True, False], [1], [1, 1], id="bools-become-ints"),
    ])
    def test_flip_bits_table(self, key, positions, expected):
        flipped = flip_bits(key, positions)
        assert flipped == expected
        assert all(type(bit) is int for bit in flipped)

    def test_flip_bits_leaves_input_untouched(self):
        key = [0, 1, 0]
        flipped = flip_bits(key, [0])
        assert key == [0, 1, 0]
        assert flipped is not key

    def test_flip_bits_negative_position_raises(self):
        with pytest.raises(IndexError):
            flip_bits([0, 1], [-1])
