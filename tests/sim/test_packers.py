"""The sweep packers against the set-bit loop, with the cases held as data.

A sweep tile lays S point blocks side by side, each V base lanes rounded
up to whole bytes; a swept key bit or a per-point bound value is broadcast
over its point's block.  The packers write each point's B-lane block as
B/8 bytes of ``0xFF`` or ``0x00``, and must equal :func:`reference_pack` —
the set-bit loop kept here as the reference — for every case below:
block widths from one byte up, one-hot and random keys, and a ragged last
tile.

Swept keys are packed from the key matrix :func:`_key_bit_matrix` builds
once per sweep; it rejects a key of the wrong length or with a bit that is
not 0/1, naming the point (and the position).
"""

import random

import pytest

from repro.sim import SimulationError
from repro.sim.evaluator import mask
from repro.sim.plan.executor import (_key_bit_matrix, _pack_point_values,
                                     _pack_swept_keys)

#: Point block widths, always whole bytes: one, two, three and 256 bytes.
BASES = [8, 16, 24, 2048]

#: Port width the keys are packed into.
PORT = 10


def reference_pack(point_values, width, base):
    """The set-bit loop: OR each point's V-lane block into its set bits."""
    block = (1 << base) - 1
    slices = [0] * width
    for index, value in enumerate(point_values):
        for position in range(width):
            if (value >> position) & 1:
                slices[position] |= block << (index * base)
    return slices


def key_value(key):
    """A key bit list (bit 0 first) as the integer the reference packs."""
    return sum(bit << position for position, bit in enumerate(key))


def one_hot_keys(length):
    """The all-zero key, then every single-bit key (key sensitivity)."""
    return [[0] * length] + [[int(bit == index) for bit in range(length)]
                             for index in range(length)]


def random_keys(length, count=9, seed=0):
    rng = random.Random(seed)
    return [[rng.randint(0, 1) for _ in range(length)] for _ in range(count)]


#: ``(case name, keys)``: one key of port length per point.
KEY_CASES = [
    ("one-hot", one_hot_keys(PORT)),
    ("random", random_keys(PORT)),
    ("all-ones", [[1] * PORT] * 3),
]

#: ``(case name, width, point values)``: per-point bound values, including
#: negative and over-wide ones (masked to the width) and a > 64-bit signal.
VALUE_CASES = [
    ("byte", 8, [random.Random(3).getrandbits(8) for _ in range(9)]),
    ("masked", 6, [-1, 1 << 70, 5, 0, 63, 64]),
    ("wide", 70, [random.Random(4).getrandbits(70) for _ in range(5)]),
]


def pack_keys(keys, base):
    return _pack_swept_keys(_key_bit_matrix(keys, PORT), base)


def run_key_case(keys, base):
    expected = reference_pack([key_value(key) for key in keys], PORT, base)
    assert pack_keys(keys, base) == expected


def run_value_case(width, values, base):
    expected = reference_pack([mask(value, width) for value in values],
                              width, base)
    assert _pack_point_values(values, width, base) == expected


def run_tiled_case(pack, point_values, base, tile_points):
    """Tiles of ``tile_points`` points (a ragged last one) pack the same
    blocks as the whole sweep, each shifted to its first point."""
    whole = pack(point_values)
    tiles = [0] * len(whole)
    for first in range(0, len(point_values), tile_points):
        tile = pack(point_values[first:first + tile_points])
        for position, word in enumerate(tile):
            tiles[position] |= word << (first * base)
    assert tiles == whole


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name,keys", KEY_CASES,
                         ids=[name for name, _ in KEY_CASES])
def test_swept_keys_equal_the_set_bit_loop(name, keys, base):
    run_key_case(keys, base)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name,width,values", VALUE_CASES,
                         ids=[name for name, _, _ in VALUE_CASES])
def test_point_values_equal_the_set_bit_loop(name, width, values, base):
    run_value_case(width, values, base)


@pytest.mark.parametrize("base", BASES)
def test_ragged_last_tile_packs_the_same_blocks(base):
    keys = one_hot_keys(PORT)  # 11 points: tiles of 4, 4 and 3
    run_tiled_case(lambda tile: pack_keys(tile, base), keys, base, 4)
    values = VALUE_CASES[0][2]  # 9 points: tiles of 4, 4 and 1
    run_tiled_case(lambda tile: _pack_point_values(tile, 8, base), values,
                   base, 4)


def _keys_with(point, position, bit, points=6):
    """Port-length zero keys, with ``bit`` at ``(point, position)``."""
    keys = [[0] * PORT for _ in range(points)]
    keys[point][position] = bit
    return keys


#: ``(case name, keys, message)``: the first fault the key matrix names.
BAD_KEY_CASES = [
    ("two", _keys_with(5, 2, 2), "key bit 2 of sweep point 5 is not 0/1"),
    ("negative", _keys_with(1, 1, -1),
     "key bit 1 of sweep point 1 is not 0/1"),
    ("fraction", _keys_with(3, PORT - 1, 0.5),
     f"key bit {PORT - 1} of sweep point 3 is not 0/1"),
    ("text", _keys_with(0, 4, "1"), "key bit 4 of sweep point 0 is not 0/1"),
    ("short", [[0] * PORT, [0] * (PORT - 4)],
     f"key of sweep point 1 has {PORT - 4} bits, expected {PORT}"),
    ("long", [[0] * (PORT + 2)],
     f"key of sweep point 0 has {PORT + 2} bits, expected {PORT}"),
    ("ragged", [[0] * PORT, [0] * PORT, [0, 7]],
     f"key of sweep point 2 has 2 bits, expected {PORT}"),
]


@pytest.mark.parametrize("name,keys,message", BAD_KEY_CASES,
                         ids=[name for name, *_ in BAD_KEY_CASES])
def test_key_matrix_names_the_first_bad_key(name, keys, message):
    with pytest.raises(SimulationError) as excinfo:
        _key_bit_matrix(keys, PORT)
    assert str(excinfo.value) == message


def test_key_matrix_accepts_booleans():
    keys = [[True, False] * (PORT // 2), [False] * PORT]
    assert _key_bit_matrix(keys, PORT).tolist() == \
        [[int(bit) for bit in key] for key in keys]
