"""Learning-resilience security metrics (Section 4.1 of the paper).

The metrics measure how far a (partially) locked design is from the optimal,
fully balanced operation distribution:

``M_sec = 100 * (1 - d_e(v_j, v_o) / d_e(v_i, v_o))``

where ``v_i`` is the distribution vector of the initial design, ``v_j`` the
vector after the j-th locking iteration, ``v_o`` the optimal (all-zero)
vector and ``d_e`` the *modified* Euclidean distance of Algorithm 2, which
skips entries marked ``'x'`` (encoded as NaN here).

Two variants exist:

* the **global** metric ``M_g_sec`` considers every pair and is monotonic —
  it measures the *potential* for exploitation;
* the **restricted** metric ``M_r_sec`` considers only pairs affected by
  locking — it measures the *actual* exploitability and is not monotonic
  because the affected set grows during locking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .odt import OperationDistributionTable


def modified_euclidean(current: Sequence[float],
                       optimal: Sequence[float]) -> float:
    """Modified Euclidean distance of Algorithm 2.

    Entries whose *optimal* value is NaN (the paper's ``'x'`` marker) are
    excluded from the sum.

    Raises:
        ValueError: if the vectors have different lengths.
    """
    current_arr = np.asarray(current, dtype=float)
    optimal_arr = np.asarray(optimal, dtype=float)
    if current_arr.shape != optimal_arr.shape:
        raise ValueError("current and optimal vectors must have the same length")
    mask = ~np.isnan(optimal_arr)
    if not mask.any():
        return 0.0
    deltas = optimal_arr[mask] - current_arr[mask]
    return float(np.sqrt(np.sum(deltas ** 2)))


def security_metric(initial: Sequence[float], current: Sequence[float],
                    optimal: Optional[Sequence[float]] = None) -> float:
    """Evaluate ``M_sec`` (Equation 1).

    Args:
        initial: ``v_i`` — distribution vector of the initial design.
        current: ``v_j`` — distribution vector after the current iteration.
        optimal: ``v_o`` — optimal vector; all zeros when omitted.  NaN
            entries mark pairs excluded from the computation.

    Returns:
        The metric value in ``[0, 100]``.  A design that is already optimal
        (``d_e(v_i, v_o) == 0``) scores 100 by definition.
    """
    initial_arr = np.asarray(initial, dtype=float)
    if optimal is None:
        optimal_arr = np.zeros_like(initial_arr)
    else:
        optimal_arr = np.asarray(optimal, dtype=float)
    denominator = modified_euclidean(initial_arr, optimal_arr)
    if denominator == 0.0:
        return 100.0
    numerator = modified_euclidean(current, optimal_arr)
    value = 100.0 * (1.0 - numerator / denominator)
    return float(np.clip(value, 0.0, 100.0))


def global_metric(odt: OperationDistributionTable,
                  initial: Sequence[float]) -> float:
    """``M_g_sec``: the metric over *all* pairs of the table."""
    pair_order = odt.pairs()
    current = odt.vector(pair_order)
    optimal = odt.optimal_vector(restricted=False, pair_order=pair_order)
    return security_metric(initial, current, optimal)


def restricted_metric(odt: OperationDistributionTable,
                      initial: Sequence[float]) -> float:
    """``M_r_sec``: the metric over the pairs affected by locking only.

    When no pair has been affected yet the design exposes nothing to a
    learning attack, so the metric is 100 by definition.
    """
    pair_order = odt.pairs()
    if not odt.affected_pairs():
        return 100.0
    current = odt.vector(pair_order)
    optimal = odt.optimal_vector(restricted=True, pair_order=pair_order)
    return security_metric(initial, current, optimal)


@dataclass
class MetricPoint:
    """One sample of the metric trajectory during locking."""

    key_bits: int
    global_value: float
    restricted_value: float


@dataclass
class MetricTracker:
    """Records the metric evolution of a locking run (data behind Fig. 5b).

    Args:
        initial: The initial distribution vector ``v_i`` of the design.
    """

    initial: np.ndarray
    points: List[MetricPoint] = field(default_factory=list)

    def record(self, odt: OperationDistributionTable, key_bits: int) -> MetricPoint:
        """Evaluate both metrics on ``odt`` and append a trajectory point."""
        point = MetricPoint(
            key_bits=key_bits,
            global_value=global_metric(odt, self.initial),
            restricted_value=restricted_metric(odt, self.initial),
        )
        self.points.append(point)
        return point

    def as_series(self) -> Tuple[List[int], List[float], List[float]]:
        """Return ``(key_bits, M_g_sec, M_r_sec)`` series for plotting."""
        return (
            [p.key_bits for p in self.points],
            [p.global_value for p in self.points],
            [p.restricted_value for p in self.points],
        )

    @property
    def final_global(self) -> float:
        """Final ``M_g_sec`` value (100.0 when no point was recorded)."""
        return self.points[-1].global_value if self.points else 100.0

    @property
    def final_restricted(self) -> float:
        """Final ``M_r_sec`` value (100.0 when no point was recorded)."""
        return self.points[-1].restricted_value if self.points else 100.0


def metric_surface(imbalances: Sequence[int],
                   steps: Optional[Sequence[int]] = None) -> np.ndarray:
    """Compute the ``M_g_sec`` surface over a grid of balancing steps.

    This reproduces the search-space view of Fig. 5a for a design with the
    given initial pair imbalances (e.g. ``[25, 10]``).  Entry ``[i, j]`` of
    the returned array is the metric after removing ``i`` units of imbalance
    from the first pair and ``j`` from the second (clamped at zero).

    Args:
        imbalances: Initial absolute imbalance of each pair (the paper uses
            two pairs; any number is supported).
        steps: Grid extent per axis; defaults to ``imbalance + 1`` per pair.

    Returns:
        An ndarray of shape ``tuple(s for s in steps)``.
    """
    initial = np.array([abs(v) for v in imbalances], dtype=float)
    if steps is None:
        steps = [int(v) + 1 for v in initial]
    if len(steps) != len(initial):
        raise ValueError("steps must have one extent per imbalance entry")
    shape = tuple(int(s) for s in steps)
    surface = np.zeros(shape, dtype=float)
    for index in np.ndindex(shape):
        current = np.maximum(initial - np.array(index, dtype=float), 0.0)
        surface[index] = security_metric(initial, current)
    return surface


# ---------------------------------------------------------------------------
# Functional (simulation-based) corruption metrics
# ---------------------------------------------------------------------------
# The distribution metrics above quantify *structural* learning resilience;
# the metrics below quantify the *functional* half of the locking contract —
# how strongly wrong keys corrupt the observable outputs.  They are driven by
# the bit-parallel batch engine: one compiled plan, one shared input batch,
# and one extra run per key hypothesis.


@dataclass
class FunctionalCorruptionReport:
    """Output corruption of a locked design across sampled wrong keys.

    Attributes:
        vectors: Input vectors per key hypothesis.
        wrong_keys: Number of sampled wrong keys.
        per_key_rates: Corruption rate (fraction of vectors with at least one
            differing output) for every sampled wrong key.
        avalanche: Mean fraction of *output bits* flipped over all wrong keys
            and vectors — 0.5 is the ideal avalanche of a strong cipher-like
            corruption, 0.0 means wrong keys are functionally invisible.
    """

    vectors: int
    wrong_keys: int
    per_key_rates: List[float]
    avalanche: float

    @property
    def mean_corruption(self) -> float:
        """Mean corruption rate over the sampled wrong keys."""
        if not self.per_key_rates:
            return 0.0
        return float(np.mean(self.per_key_rates))

    @property
    def min_corruption(self) -> float:
        """Worst (lowest) corruption rate — the weakest sampled wrong key."""
        if not self.per_key_rates:
            return 0.0
        return float(min(self.per_key_rates))


def functional_corruption(design, correct_key: Optional[Sequence[int]] = None,
                          vectors: int = 64, wrong_keys: int = 8,
                          rng: Optional[random.Random] = None,
                          ) -> FunctionalCorruptionReport:
    """Measure output corruption of ``design`` under sampled wrong keys.

    All ``wrong_keys + 1`` key hypotheses evaluate as lanes of a *single*
    bit-parallel sweep over the design's cached plan, and the differences
    from the correct key are counted on the bit-sliced outputs
    (:func:`repro.sim.sweep_differences`); designs the plan compiler cannot
    express fall back to a per-key scalar loop with identical numbers.

    Args:
        design: A locked :class:`~repro.rtlir.design.Design`.
        correct_key: Reference key (defaults to the design's correct key).
        vectors: Input vectors per key hypothesis.
        wrong_keys: Number of random wrong keys to sample.
        rng: Random source for vectors and wrong keys.

    Raises:
        ValueError: if the design is not locked or sizes are non-positive.
    """
    from ..sim import (output_signals, random_input_batch, random_wrong_key,
                       sweep_differences)

    if not design.is_locked:
        raise ValueError("functional corruption requires a locked design")
    if vectors < 1 or wrong_keys < 1:
        raise ValueError("vectors and wrong_keys must be positive")
    rng = rng or random.Random()
    correct = list(correct_key) if correct_key is not None \
        else design.correct_key

    batch = random_input_batch(design, rng, vectors)
    wrongs = [random_wrong_key(correct, rng) for _ in range(wrong_keys)]
    differences = sweep_differences(design, batch, keys=[correct] + wrongs,
                                    n=vectors)
    total_bits_per_vector = sum(width for name, width
                                in output_signals(design)
                                if name in differences.outputs)
    per_key_rates = [lanes / vectors for lanes in differences.lanes]
    flipped_bits = sum(differences.bits)

    denom = wrong_keys * vectors * max(total_bits_per_vector, 1)
    return FunctionalCorruptionReport(
        vectors=vectors, wrong_keys=wrong_keys,
        per_key_rates=per_key_rates,
        avalanche=flipped_bits / denom,
    )


def key_bit_sensitivity(design, vectors: int = 32,
                        rng: Optional[random.Random] = None) -> List[float]:
    """Per-key-bit output sensitivity of a locked design.

    Entry ``i`` is the fraction of input vectors whose outputs change when
    key bit ``i`` is flipped relative to the all-zero key, a key hypothesis
    an *attacker* can evaluate without knowing the secret.

    The base key and every flipped key form one sweep over the design's
    cached plan (:func:`repro.sim.sweep_differences`).  Each flipped key
    differs from the base key in one bit, so the sweep takes the cone path:
    the plan runs once on the vectors under the all-zero key, and each
    flip re-runs, in place on that pass, only the steps of its bit's
    fan-out cone whose inputs the flip changed; the differing lanes are
    counted on the outputs it changed, on their bit slices.  The base key and each flipped key
    are the same on every lane of their pass, so every locking mux of the
    plan runs only the operation its key bit selects, never its dummy.
    Designs the plan compiler cannot express fall back to a per-key scalar
    loop with identical numbers.

    Raises:
        ValueError: if the design is not locked or ``vectors`` is not
            positive.
    """
    from ..sim import random_input_batch, sweep_differences

    if not design.is_locked:
        raise ValueError("key-bit sensitivity requires a locked design")
    if vectors < 1:
        raise ValueError("vectors must be positive")
    rng = rng or random.Random()
    width = design.key_width

    batch = random_input_batch(design, rng, vectors)
    zeros = [0] * width
    keys = [zeros] + [zeros[:index] + [1] + zeros[index + 1:]
                      for index in range(width)]
    differences = sweep_differences(design, batch, keys=keys, n=vectors)
    return [lanes / vectors for lanes in differences.lanes]


@dataclass
class AvalancheReport:
    """Input-avalanche profile of a design (single-bit input flips).

    Attributes:
        signal: Name of the probed input signal.
        base_value: Base value the probed signal is held at.
        vectors: Number of random context vectors (values of the *other*
            inputs) each flip is evaluated against.
        bit_indices: Probed bit positions of ``signal``, one per flip point.
        per_bit: Mean fraction of *output bits* flipped by each single-bit
            input flip (0.5 is the ideal avalanche of a cipher-like design).
        lanes_changed: Fraction of context vectors with at least one
            differing output, per flip point.
    """

    signal: str
    base_value: int
    vectors: int
    bit_indices: List[int]
    per_bit: List[float]
    lanes_changed: List[float]

    @property
    def mean_sensitivity(self) -> float:
        """Mean output-bit flip fraction over all probed input bits."""
        if not self.per_bit:
            return 0.0
        return float(np.mean(self.per_bit))

    @property
    def max_sensitivity(self) -> float:
        """Strongest single-bit avalanche observed."""
        return float(max(self.per_bit)) if self.per_bit else 0.0

    @property
    def min_sensitivity(self) -> float:
        """Weakest single-bit avalanche observed (0.0 = dead input bit)."""
        return float(min(self.per_bit)) if self.per_bit else 0.0


def avalanche_sensitivity(design, signal: Optional[str] = None,
                          bits: Optional[Sequence[int]] = None,
                          vectors: int = 16,
                          key: Optional[Sequence[int]] = None,
                          rng: Optional[random.Random] = None,
                          ) -> AvalancheReport:
    """Single-bit input-flip avalanche study in one bit-parallel pass.

    One input signal is held at a random base value while the remaining
    inputs take ``vectors`` random context values; every probed bit flip of
    the base value becomes one sweep point of a single
    :func:`~repro.sim.sweep_differences` pass — S single-bit-flip points × V
    context lanes evaluate together instead of S batch calls, and the
    flipped output bits are counted on the bit-sliced outputs.  Because
    every point binds the *same* key, sweep value-numbering treats the whole
    key cone as point-invariant: only the probed signal's fan-out cone is
    re-evaluated per flip point, and every locking mux runs only the
    operation the shared key selects.  Locked designs are evaluated under
    their correct key (or ``key``), so the profile measures the
    *functional* avalanche of the design, not key corruption (see
    :func:`functional_corruption` for that).

    Designs the plan compiler cannot express fall back to a scalar per-point
    loop with bit-identical numbers.

    Args:
        design: The (locked or unlocked) design to profile.
        signal: Probed input name; defaults to the widest data input.
        bits: Bit positions of ``signal`` to flip (default: every bit).
        vectors: Context vectors shared by all flip points.
        key: Key to simulate under (locked designs only; defaults to the
            correct key).
        rng: Random source for the base value and context vectors.

    Raises:
        ValueError: for designs without data inputs, unknown signals,
            out-of-range bit indices or a non-positive vector count.
    """
    from ..sim import (input_signals, output_signals, random_vector_batch,
                       sweep_differences)

    if vectors < 1:
        raise ValueError("vectors must be positive")
    signals = input_signals(design)
    if not signals:
        raise ValueError("avalanche sensitivity needs at least one data input")
    widths = dict(signals)
    if signal is None:
        signal = max(signals, key=lambda item: item[1])[0]
    if signal not in widths:
        raise ValueError(f"unknown input signal {signal!r}; available: "
                         f"{sorted(widths)}")
    width = widths[signal]
    bit_indices = list(bits) if bits is not None else list(range(width))
    if any(b < 0 or b >= width for b in bit_indices):
        raise ValueError(f"bit index out of range for {width}-bit "
                         f"signal {signal!r}")
    rng = rng or random.Random()

    base_value = rng.getrandbits(width)
    context_signals = [(name, w) for name, w in signals if name != signal]
    context = random_vector_batch(context_signals, rng, vectors)
    bindings = [{signal: base_value}] + \
        [{signal: base_value ^ (1 << b)} for b in bit_indices]
    keys = None
    if design.is_locked:
        chosen = list(key) if key is not None else design.correct_key
        keys = [chosen] * len(bindings)

    differences = sweep_differences(design, context, keys=keys,
                                    bindings=bindings, n=vectors)
    total_bits = max(sum(w for name, w in output_signals(design)
                         if name in differences.outputs), 1)
    per_bit = [flipped / (vectors * total_bits)
               for flipped in differences.bits]
    lanes_changed = [lanes / vectors for lanes in differences.lanes]

    return AvalancheReport(signal=signal, base_value=base_value,
                           vectors=vectors, bit_indices=bit_indices,
                           per_bit=per_bit, lanes_changed=lanes_changed)


# ---------------------------------------------------------------------------
# Registry metrics (see repro.api)
# ---------------------------------------------------------------------------

from ..api.registry import register_metric  # noqa: E402

#: A fraction of vectors, lanes or output bits.
_FRACTION = (0.0, 1.0)


def _key_width(design) -> int:
    return design.key_width


@register_metric("corruption", aliases=("functional-corruption",),
                 bounds={"mean_corruption": _FRACTION,
                         "min_corruption": _FRACTION,
                         "avalanche": _FRACTION,
                         "per_key_rates": _FRACTION})
def _corruption_metric(design, rng: Optional[random.Random] = None,
                       vectors: int = 32, wrong_keys: int = 4,
                       **_: object) -> Dict[str, object]:
    """Output corruption under sampled wrong keys (locked designs)."""
    report = functional_corruption(design, vectors=vectors,
                                   wrong_keys=wrong_keys, rng=rng)
    return {"mean_corruption": report.mean_corruption,
            "min_corruption": report.min_corruption,
            "avalanche": report.avalanche,
            "per_key_rates": list(report.per_key_rates)}


@register_metric("key-sensitivity", aliases=("key_bit_sensitivity",),
                 bounds={"per_bit": _FRACTION, "mean": _FRACTION,
                         "dead_bits": (0, _key_width)})
def _key_sensitivity_metric(design, rng: Optional[random.Random] = None,
                            vectors: int = 32,
                            **_: object) -> Dict[str, object]:
    """Per-key-bit output sensitivity profile (locked designs)."""
    per_bit = key_bit_sensitivity(design, vectors=vectors, rng=rng)
    return {"per_bit": list(per_bit),
            "mean": float(np.mean(per_bit)) if per_bit else 0.0,
            "dead_bits": sum(1 for value in per_bit if value == 0.0)}


@register_metric("avalanche", aliases=("avalanche_sensitivity",),
                 bounds={"mean": _FRACTION, "max": _FRACTION,
                         "min": _FRACTION, "per_bit": _FRACTION,
                         "lanes_changed": _FRACTION})
def _avalanche_metric(design, rng: Optional[random.Random] = None,
                      vectors: int = 16, signal: Optional[str] = None,
                      **_: object) -> Dict[str, object]:
    """Single-bit input-flip avalanche profile (any design)."""
    report = avalanche_sensitivity(design, signal=signal, vectors=vectors,
                                   rng=rng)
    return {"signal": report.signal,
            "mean": report.mean_sensitivity,
            "max": report.max_sensitivity,
            "min": report.min_sensitivity,
            "per_bit": list(report.per_bit),
            "lanes_changed": list(report.lanes_changed)}
