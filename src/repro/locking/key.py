"""Key handling utilities.

Keys are represented as lists of bits (index 0 = key input bit 0).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def flip_bits(key: Sequence[int], positions: Iterable[int]) -> List[int]:
    """Return a copy of ``key`` with the given bit positions flipped."""
    flipped = [int(b) for b in key]
    for position in positions:
        if not 0 <= position < len(flipped):
            raise IndexError(f"bit position {position} out of range")
        flipped[position] ^= 1
    return flipped
