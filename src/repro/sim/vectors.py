"""Seeded random-vector and key sampling shared by every simulation consumer.

Every consumer — the metrics of :mod:`repro.locking.metrics` and
:mod:`repro.attacks.kpa` — draws through the
helpers below, which consume the ``random.Random`` stream in one canonical
order — *vector-major, input-minor*, key port excluded — so a shared seed
produces identical test vectors whichever engine simulates them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..rtlir.design import Design
from .plan.steps import _declared_widths


def input_signals(design: Design) -> List[Tuple[str, int]]:
    """Ordered ``(name, width)`` pairs of a design's data inputs.

    The key port of a locked design is excluded — keys are sampled and bound
    separately from the input vectors.
    """
    module = design.top
    widths = _declared_widths(module)
    return [(port.name, widths.get(port.name, 1))
            for port in module.ports
            if port.direction == "input" and port.name != design.key_port]


def output_signals(design: Design) -> List[Tuple[str, int]]:
    """Ordered ``(name, width)`` pairs of a design's output ports."""
    module = design.top
    widths = _declared_widths(module)
    return [(port.name, widths.get(port.name, 1))
            for port in module.ports if port.direction == "output"]


def random_vector_batch(signals: Sequence[Tuple[str, int]],
                        rng: random.Random, n: int) -> Dict[str, List[int]]:
    """Draw ``n`` random vectors for the given ``(name, width)`` signals.

    The values are those of ``rng.getrandbits(width)`` called vector-major
    and signal-minor, so one batch of ``n`` vectors equals ``n`` successive
    single-vector draws and leaves ``rng`` in the same state.  They are
    drawn in one ``getrandbits`` call of 32 bits per Mersenne word and cut
    with numpy: CPython's ``getrandbits(k)`` takes ⌈k/32⌉ 32-bit words
    (none for ``k = 0``), low word first, and keeps only the top bits of
    its last word, so a draw of whole words keeps every bit of each.
    """
    import numpy as np

    counts = [(width + 31) // 32 for _, width in signals]
    row = sum(counts)
    words = np.frombuffer(
        rng.getrandbits(32 * row * n).to_bytes(4 * row * n, "little"),
        dtype="<u4").reshape(n, row)
    batch: Dict[str, List[int]] = {}
    column = 0
    for (name, width), count in zip(signals, counts):
        # Top word first: it keeps its top bits, the lower words all 32.
        value = np.zeros(n, dtype=np.uint64 if count <= 2 else object)
        shift = 32 * count - width
        for index in reversed(range(column, column + count)):
            value = value << 32 | words[:, index] >> shift
            shift = 0
        batch[name] = value.tolist()
        column += count
    return batch


def random_input_batch(design: Design, rng: random.Random,
                       n: int) -> Dict[str, List[int]]:
    """Draw ``n`` random vectors for every data input of ``design``.

    The one input sampler of both engines: inputs in port order, each at
    its declared width (:func:`input_signals`).  It never compiles a plan,
    so it also serves designs that only the scalar engine can simulate.
    """
    return random_vector_batch(input_signals(design), rng, n)


def batch_to_vectors(batch: Dict[str, List[int]], n: int) -> List[Dict[str, int]]:
    """Split a ``{name: [value per lane]}`` batch into per-vector dicts."""
    return [{name: values[lane] for name, values in batch.items()}
            for lane in range(n)]


def random_bits(rng: random.Random, count: int) -> List[int]:
    """Draw ``count`` uniform bits, each exactly as ``rng.randint(0, 1)``.

    ``randint(0, 1)`` draws ``getrandbits(2)`` until the value is below 2
    (``Random._randbelow(2)``); this makes the same draws without its
    three Python frames per bit, so the bits and the state ``rng`` is
    left in are those of ``count`` ``randint(0, 1)`` calls.
    """
    getrandbits = rng.getrandbits
    bits = []
    for _ in range(count):
        bit = getrandbits(2)
        while bit > 1:
            bit = getrandbits(2)
        bits.append(bit)
    return bits


def random_key(width: int, rng: random.Random) -> List[int]:
    """Draw a uniformly random key of ``width`` bits (LSB first).

    Raises:
        ValueError: for a negative ``width``.
    """
    if width < 0:
        raise ValueError("key width must be non-negative")
    return random_bits(rng, width)


def random_wrong_key(correct: Sequence[int],
                     rng: random.Random) -> List[int]:
    """Draw a uniformly random key different from ``correct``."""
    while True:
        candidate = random_key(len(correct), rng)
        if candidate != list(correct):
            return candidate
