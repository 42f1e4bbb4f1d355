"""Helpers several test suites share: key flips, the equivalence check and
the pair-vote reference.

:func:`check_equivalence` states the contract every locker keeps: under
the correct key the locked design computes the original function.  It runs
each design on its cached batch engine, or on the scalar one when the
design does not compile.

:func:`pair_votes` counts the key values of each ``(C1, C2)`` pair in a
plain row loop; the ``majority`` attack and Fig. 4 count the same pairs
from a :class:`~repro.ml.base.GroupedRows` table and are held to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rtlir import Design
from repro.sim.simulator import _simulator
from repro.sim.vectors import random_input_batch


def pair_votes(features: Sequence[Sequence[float]], labels: Sequence[int]
               ) -> Dict[Tuple[float, float], Dict[int, int]]:
    """Count the key values seen with each ``(C1, C2)`` pair of localities.

    Returns ``{(C1, C2): {key value: count}}``, pairs and key values in the
    order they are first seen.
    """
    votes: Dict[Tuple[float, float], Dict[int, int]] = {}
    for row, label in zip(features, labels):
        counts = votes.setdefault((row[0], row[1]), {})
        counts[int(label)] = counts.get(int(label), 0) + 1
    return votes


def flip_bits(key: Sequence[int], positions: Iterable[int]) -> List[int]:
    """Return a copy of ``key`` with the given bit positions flipped."""
    flipped = [int(b) for b in key]
    for position in positions:
        if not 0 <= position < len(flipped):
            raise IndexError(f"bit position {position} out of range")
        flipped[position] ^= 1
    return flipped


@dataclass
class EquivalenceReport:
    """Result of comparing two designs over random input vectors."""

    vectors: int
    mismatches: int
    first_mismatch: Optional[Dict[str, object]] = None

    @property
    def equivalent(self) -> bool:
        """True when no output differed on any tested vector."""
        return self.mismatches == 0


def check_equivalence(original: Design, locked: Design, key: Sequence[int],
                      vectors: int = 50,
                      rng: Optional[random.Random] = None
                      ) -> EquivalenceReport:
    """Compare a locked design under ``key`` against the original design.

    Args:
        original: The unlocked reference design.
        locked: The locked design.
        key: Key-bit values applied to the locked design.
        vectors: Number of random input vectors to test, drawn from ``rng``
            by :func:`~repro.sim.vectors.random_input_batch` of ``original``.
        rng: Random source for the input vectors.

    Returns:
        An :class:`EquivalenceReport`; ``report.equivalent`` is the verdict.
    """
    if vectors < 1:
        return EquivalenceReport(vectors=vectors, mismatches=0)
    reference, candidate = _simulator(original), _simulator(locked)
    common = set(reference.output_names) & set(candidate.output_names)
    batch = random_input_batch(original, rng or random.Random(), vectors)
    expected = reference.run_batch(batch, n=vectors)
    actual = candidate.run_batch(batch, key=key, n=vectors)
    mismatches = 0
    first: Optional[Dict[str, object]] = None
    for lane in range(vectors):
        diff = sorted(name for name in common
                      if expected[name][lane] != actual[name][lane])
        if diff:
            mismatches += 1
            if first is None:
                first = {"inputs": {name: values[lane]
                                    for name, values in batch.items()},
                         "outputs": diff,
                         "expected": {n: expected[n][lane] for n in diff},
                         "actual": {n: actual[n][lane] for n in diff}}
    return EquivalenceReport(vectors=vectors, mismatches=mismatches,
                             first_mismatch=first)
