"""Seeded random-vector and key sampling shared by every simulation consumer.

Before this module existed, :mod:`repro.locking.metrics` and
:mod:`repro.attacks.kpa` each rolled their own input-vector loops.  Both
now draw through the helpers below, which consume the ``random.Random``
stream in one canonical order — *vector-major, input-minor*, key port
excluded — so a shared seed produces identical test vectors everywhere: in
the scalar oracle, in the batch engine, and across the scalar fallback of the
sweep API.
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

    The stream is consumed vector-major and signal-minor: drawing one batch
    of ``n`` vectors advances ``rng`` exactly as far as ``n`` successive
    single-vector draws, so scalar loops and batch calls sharing a seed see
    the same data.
    """
    batch: Dict[str, List[int]] = {name: [] for name, _ in signals}
    for _ in range(n):
        for name, width in signals:
            batch[name].append(rng.getrandbits(width))
    return batch


def random_input_batch(design: Design, rng: random.Random,
                       n: int) -> Dict[str, List[int]]:
    """Draw ``n`` random vectors for every data input of ``design``.

    Unlike :meth:`BatchSimulator.random_batch <repro.sim.plan.BatchSimulator.random_batch>`
    this never compiles a plan, so it also serves designs that only the
    scalar engine can simulate.
    """
    return random_vector_batch(input_signals(design), rng, n)


def batch_to_vectors(batch: Dict[str, List[int]], n: int) -> List[Dict[str, int]]:
    """Split a ``{name: [value per lane]}`` batch into per-vector dicts."""
    return [{name: values[lane] for name, values in batch.items()}
            for lane in range(n)]


def random_key(width: int, rng: random.Random) -> List[int]:
    """Draw a uniformly random key of ``width`` bits (LSB first)."""
    return [rng.randint(0, 1) for _ in range(width)]


def random_wrong_key(correct: Sequence[int],
                     rng: random.Random) -> List[int]:
    """Draw a uniformly random key different from ``correct``."""
    while True:
        candidate = random_key(len(correct), rng)
        if candidate != list(correct):
            return candidate
