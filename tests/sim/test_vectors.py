"""Unit tests for the seeded vector and key samplers."""

import random

import pytest

from repro.locking import AssureLocker
from repro.sim.vectors import (
    batch_to_vectors,
    input_signals,
    output_signals,
    random_bits,
    random_input_batch,
    random_key,
    random_vector_batch,
    random_wrong_key,
)


class TestSignals:
    def test_input_signals_in_port_order_with_widths(self, mixer_design):
        assert input_signals(mixer_design) == [
            ("clk", 1), ("rst_n", 1), ("a", 8), ("b", 8), ("c", 8), ("d", 8)]

    def test_key_port_is_not_an_input_signal(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 2).design
        names = [name for name, _ in input_signals(locked)]
        assert locked.key_port not in names
        assert names == [name for name, _ in input_signals(mixer_design)]

    def test_output_signals(self, mixer_design):
        assert output_signals(mixer_design) == [("y", 8), ("z", 8)]


class TestVectorBatch:
    @pytest.mark.parametrize("width", [1, 4, 32, 64])
    def test_values_fit_their_width(self, width):
        batch = random_vector_batch([("x", width)], random.Random(3), 200)
        assert len(batch["x"]) == 200
        assert all(0 <= value < 2 ** width for value in batch["x"])

    def test_batch_matches_successive_single_draws(self):
        signals = [("a", 8), ("b", 3)]
        batch = random_vector_batch(signals, random.Random(11), 5)
        rng = random.Random(11)
        singles = [random_vector_batch(signals, rng, 1) for _ in range(5)]
        assert batch == {name: [single[name][0] for single in singles]
                         for name, _ in signals}

    def test_zero_vectors(self):
        assert random_vector_batch([("a", 4)], random.Random(0), 0) == {"a": []}

    def test_batch_to_vectors_splits_lanes(self):
        batch = {"a": [1, 2, 3], "b": [4, 5, 6]}
        assert batch_to_vectors(batch, 3) == [
            {"a": 1, "b": 4}, {"a": 2, "b": 5}, {"a": 3, "b": 6}]

    def test_input_batch_draws_every_data_input(self, mixer_design):
        batch = random_input_batch(mixer_design, random.Random(5), 4)
        assert batch == random_vector_batch(
            input_signals(mixer_design), random.Random(5), 4)


def per_value_batch(signals, rng, n):
    """The per-value loop: one ``getrandbits`` call per value, vector-major."""
    batch = {name: [] for name, _ in signals}
    for _ in range(n):
        for name, width in signals:
            batch[name].append(rng.getrandbits(width))
    return batch


#: Every word shape of ``getrandbits``: no word (0), the top bits of one,
#: one whole word, whole words and the top bits of one more.
MIXED_WIDTHS = [0, 1, 7, 31, 32, 33, 63, 64, 65, 512]

#: ``(id, signals, n)``: the mixed list, and each width alone, at every n.
BATCH_DRAWS = [(f"{label}-n{n}", signals, n)
               for label, signals in
               [("mixed", [(f"w{width}", width) for width in MIXED_WIDTHS])]
               + [(f"w{width}", [("x", width)]) for width in MIXED_WIDTHS]
               for n in (0, 1, 3, 2048)]


class TestBatchDraw:
    """One draw per batch gives the values and the rng state of the
    per-value loop."""

    @pytest.mark.parametrize("signals,n", [case[1:] for case in BATCH_DRAWS],
                             ids=[case[0] for case in BATCH_DRAWS])
    def test_same_values_and_state_as_the_per_value_loop(self, signals, n):
        drawn, reference = random.Random(n), random.Random(n)
        for _ in range(2):  # the second draw continues the same stream
            batch = random_vector_batch(signals, drawn, n)
            assert batch == per_value_batch(signals, reference, n)
            assert drawn.getstate() == reference.getstate()
            assert all(type(value) is int
                       for values in batch.values() for value in values)
        assert drawn.random() == reference.random()


class TestWrongKey:
    @pytest.mark.parametrize("correct", [[0], [1], [1, 0], [0, 1, 1, 0] * 4])
    def test_wrong_key_differs_and_keeps_width(self, correct):
        rng = random.Random(9)
        for _ in range(20):
            wrong = random_wrong_key(correct, rng)
            assert wrong != correct
            assert len(wrong) == len(correct)
            assert set(wrong) <= {0, 1}

    def test_wrong_key_deterministic_with_seed(self):
        correct = random_key(12, random.Random(1))
        assert (random_wrong_key(correct, random.Random(2))
                == random_wrong_key(correct, random.Random(2)))


#: ``(seed, count)`` pairs: every count at three seeds.
BIT_DRAWS = [(seed, count) for seed in (0, 1, 12345)
             for count in (0, 1, 7, 64, 1000)]


class TestRandomBits:
    """``random_bits`` is ``count`` calls of ``rng.randint(0, 1)``."""

    @pytest.mark.parametrize("seed,count", BIT_DRAWS)
    def test_same_bits_and_state_as_randint(self, seed, count):
        drawn, reference = random.Random(seed), random.Random(seed)
        bits = random_bits(drawn, count)
        assert bits == [reference.randint(0, 1) for _ in range(count)]
        assert drawn.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed,count", BIT_DRAWS)
    def test_random_key_draws_the_same_bits(self, seed, count):
        assert random_key(count, random.Random(seed)) == random_bits(
            random.Random(seed), count)
