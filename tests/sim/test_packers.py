"""The sweep packers against the set-bit loop, with the cases held as data.

A sweep tile lays S points of V base lanes side by side; a swept key bit or
a per-point bound value is broadcast over its point's V-lane block.  When
V is a multiple of 8 the packers write each point's block as V/8 bytes of
``0xFF`` or ``0x00``; other base widths OR each point's block into the
slices it sets.  Both must equal :func:`reference_pack` — the set-bit loop
kept here as the reference — for every case below: base widths that are
and are not whole bytes, one-hot and random keys, a ragged last tile, and
keys shorter and longer than the port.
"""

import random

import pytest

from repro.sim import SimulationError
from repro.sim.evaluator import mask
from repro.sim.plan.executor import _pack_point_values, _pack_swept_keys

#: Base lane counts: below a byte, ragged bytes, and whole bytes.
BASES = [1, 7, 8, 12, 16, 2048]

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


#: ``(case name, keys)``: point keys of port length and of shorter and
#: longer lengths (bits past the port are dropped, missing ones read 0).
KEY_CASES = [
    ("one-hot", one_hot_keys(PORT)),
    ("random", random_keys(PORT)),
    ("short", random_keys(PORT - 4, seed=1)),
    ("long", random_keys(PORT + 5, seed=2)),
    ("one-hot-long", one_hot_keys(PORT + 3)),
]

#: ``(case name, width, point values)``: per-point bound values, including
#: negative and over-wide ones (masked to the width) and a > 64-bit signal.
VALUE_CASES = [
    ("byte", 8, [random.Random(3).getrandbits(8) for _ in range(9)]),
    ("masked", 6, [-1, 1 << 70, 5, 0, 63, 64]),
    ("wide", 70, [random.Random(4).getrandbits(70) for _ in range(5)]),
]


def run_key_case(keys, base):
    expected = reference_pack([key_value(key) for key in keys], PORT, base)
    assert _pack_swept_keys(keys, PORT, base) == expected


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
    run_tiled_case(lambda tile: _pack_swept_keys(tile, PORT, base), keys,
                   base, 4)
    values = VALUE_CASES[0][2]  # 9 points: tiles of 4, 4 and 1
    run_tiled_case(lambda tile: _pack_point_values(tile, 8, base), values,
                   base, 4)


#: ``(case name, keys, point, position)`` of the first bad bit.
BAD_KEY_CASES = [
    ("two", [[0, 1, 0]] * 5 + [[0, 0, 2]], 5, 2),
    ("negative", [[0, 1, 0], [1, -1, 0]], 1, 1),
    ("past-the-port", [[0] * (PORT + 2), [0] * (PORT + 1) + [3]], 1,
     PORT + 1),
    ("ragged", [[0, 1], [1, 0, 1], [0, 7]], 2, 1),
]


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name,keys,point,position", BAD_KEY_CASES,
                         ids=[name for name, *_ in BAD_KEY_CASES])
def test_non_binary_key_bit_names_point_and_position(name, keys, point,
                                                     position, base):
    with pytest.raises(SimulationError,
                       match=f"key bit {position} of sweep point {point} "):
        _pack_swept_keys(keys, PORT, base)
