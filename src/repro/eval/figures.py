"""Data builders for every figure of the paper's evaluation.

Each function returns plain data structures (dataclasses / dictionaries /
NumPy arrays) that the benchmark harness prints as text tables; no plotting
library is required.

* :func:`figure4_observation_analysis` — the operation-selection study of
  Fig. 4 (serial vs. random vs. non-overlapping random relocking on a
  ``+``-network).
* :func:`figure5_surface` and :func:`figure5_trajectories` — the metric
  search-space and metric-evolution views of Fig. 5.
* :func:`axis_sweeps_from_records` — KPA along the matrix axes of a
  scenario run.  The Fig. 6 tables themselves come from the store reports
  (:func:`repro.eval.store_report_json`'s ``figure6`` block).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.locality import LocalityExtractor
from ..bench.generators import plus_network, profile_design
from ..bench.profiles import BenchmarkProfile
from ..locking.assure import AssureLocker
from ..locking.era import ERALocker
from ..locking.hra import HRALocker
from ..locking.metrics import MetricTracker, metric_surface
from ..ml.base import GroupedRows
from ..rtlir.design import Design
from ..rtlir.operations import decode_operator

# ---------------------------------------------------------------------------
# Figure 4 — impact of operation selection on learning resilience
# ---------------------------------------------------------------------------


@dataclass
class ObservationPool:
    """Observation statistics of one selection scenario (Fig. 4e-g).

    Attributes:
        scenario: ``serial``, ``random`` or ``random-no-overlap``.
        pair_label_counts: ``{(true_op, false_op): {key_value: count}}`` over
            the training observations.
        real_operator_counts: ``{operator: count}`` — how often the operator
            appears as the *real* (wrapped) operation in the training set.
        inferred_accuracy: Accuracy of the induced pair-majority rule replayed
            on the test sample's key bits (1.0 = the attacker recovers the
            key, 0.5 = coin flip).
        overlap_fraction: Fraction of training-locked operations that were
            already part of a locking pair of the test sample.
    """

    scenario: str
    pair_label_counts: Dict[Tuple[str, str], Dict[int, int]] = field(default_factory=dict)
    real_operator_counts: Dict[str, int] = field(default_factory=dict)
    inferred_accuracy: float = 0.0
    overlap_fraction: float = 0.0

    def contradiction_ratio(self) -> float:
        """How contradictory the observations are (1.0 = fully contradictory).

        For every observed operation pair this compares how often it was seen
        with key value 0 vs. 1; the minority/majority ratio averaged over
        pairs is 1.0 when every pair is equally associated with both key
        values (the learning-resilient case of Fig. 4e) and 0.0 when every
        pair always points at the same key value (Fig. 4g).
        """
        ratios: List[float] = []
        for counts in self.pair_label_counts.values():
            zero = counts.get(0, 0)
            one = counts.get(1, 0)
            if zero + one == 0:
                continue
            majority = max(zero, one)
            minority = min(zero, one)
            ratios.append(minority / majority if majority else 0.0)
        return float(np.mean(ratios)) if ratios else 0.0

    def real_operator_bias(self, operator: str = "+") -> float:
        """Fraction of training observations whose real operation is ``operator``."""
        total = sum(self.real_operator_counts.values())
        if total == 0:
            return 0.0
        return self.real_operator_counts.get(operator, 0) / total


def figure4_observation_analysis(n_operations: int = 64,
                                 training_rounds: int = 20,
                                 key_budget: Optional[int] = None,
                                 seed: int = 0) -> Dict[str, ObservationPool]:
    """Reproduce the Fig. 4 selection study on a ``+``-network.

    The target network is locked once (the *test* sample).  Training
    observations are then collected by relocking that locked target under
    three scenarios:

    * ``serial`` — test and training both use serial selection, so the
      training rounds extend exactly the locking pairs of the test sample
      (Fig. 4b): real and dummy operations are wrapped equally often and the
      observations are contradictory,
    * ``random`` — operations of the locked target are selected at random
      (Fig. 4c): training and test locking overlap only partially and the
      ``+`` operation is *more likely* to be the real one,
    * ``random-no-overlap`` — training only wraps operations untouched by the
      test locking (Fig. 4d): every observation names ``+`` as the real
      operation and the key can be inferred.

    Returns:
        ``{scenario: ObservationPool}``.
    """
    rng = random.Random(seed)
    design = plus_network(n_operations, name="fig4_plus_network")
    budget = key_budget or max(1, n_operations // 2)

    pools: Dict[str, ObservationPool] = {}
    for scenario in ("serial", "random", "random-no-overlap"):
        pools[scenario] = _observation_pool_for(design, scenario, budget,
                                                training_rounds,
                                                random.Random(rng.getrandbits(64)))
    return pools


def _observation_pool_for(design: Design, scenario: str, budget: int,
                          training_rounds: int,
                          rng: random.Random) -> ObservationPool:
    extractor = LocalityExtractor()

    # --- test sample -------------------------------------------------------
    test_selection = "serial" if scenario == "serial" else "random"
    test_locker = AssureLocker(test_selection, rng=random.Random(rng.getrandbits(64)),
                               track_metrics=False)
    test_locked = test_locker.lock(design, key_budget=budget)
    test_features, test_labels = extractor.extract_matrix(test_locked.design)

    pool = ObservationPool(scenario=scenario)
    overlaps: List[float] = []

    for _ in range(training_rounds):
        round_rng = random.Random(rng.getrandbits(64))
        features, labels, overlap = _training_round(test_locked.design, scenario,
                                                    budget, round_rng)
        overlaps.append(overlap)
        _accumulate_observations(pool, features, labels)

    pool.overlap_fraction = float(np.mean(overlaps)) if overlaps else 0.0
    pool.inferred_accuracy = _replay_pair_majority(pool, test_features, test_labels)
    return pool


def _training_round(locked_target: Design, scenario: str, budget: int,
                    rng: random.Random) -> Tuple[np.ndarray, np.ndarray, float]:
    """One training (relocking) round on a copy of the locked target."""
    from ..locking.base import LockingSession  # deferred to keep import DAG flat

    extractor = LocalityExtractor()
    original_width = locked_target.key_width
    working = locked_target.copy()
    session = LockingSession(working, rng=rng)

    if scenario == "serial":
        # Serial selection: the same topologically-first operations every
        # round; relocking therefore extends the test sample's locking pairs.
        AssureLocker("serial", rng=rng, track_metrics=False).relock(
            session, key_budget=budget)
        overlap = 1.0
    else:
        refs = session.all_ops()
        if scenario == "random-no-overlap":
            candidates = [ref for ref in refs
                          if ref.lock_count == 0 and not ref.is_dummy]
        else:
            candidates = list(refs)
        rng.shuffle(candidates)
        selected = candidates[:budget]
        touched = sum(1 for ref in selected
                      if ref.lock_count > 0 or ref.is_dummy)
        for ref in selected:
            session.add_pair(ref)
        overlap = touched / max(len(selected), 1)
    new_indices = list(range(original_width, working.key_width))
    features, labels = extractor.extract_matrix(working, key_indices=new_indices)
    return features, labels, overlap


def _accumulate_observations(pool: ObservationPool, features: np.ndarray,
                             labels: np.ndarray) -> None:
    """Add one round's (pair, key value) counts to ``pool``.

    Pairs with an undecodable code (``NO_OPERATION``) are skipped, and a
    round without rows adds nothing.
    """
    if not len(labels):
        return
    data = GroupedRows.from_rows(features, labels)
    for codes, counts in zip(data.distinct, data.counts().tolist()):
        try:
            pair = (decode_operator(int(codes[0])),
                    decode_operator(int(codes[1])))
        except KeyError:
            continue
        pooled = pool.pair_label_counts.setdefault(pair, {})
        for label, count in zip(data.classes.tolist(), counts):
            if not count:
                continue
            pooled[label] = pooled.get(label, 0) + count
            real_op = pair[0] if label == 1 else pair[1]
            pool.real_operator_counts[real_op] = (
                pool.real_operator_counts.get(real_op, 0) + count)


def _replay_pair_majority(pool: ObservationPool, test_features: np.ndarray,
                          test_labels: np.ndarray) -> float:
    """Replay the learned pair → majority-key rule on the test sample.

    Pairs never observed during training, and pairs whose observations are
    perfectly tied, contribute the 0.5 expectation of a coin flip.  (The
    ``majority`` attack, :class:`~repro.attacks.baselines.MajorityVoteAttack`,
    counts the same pairs but predicts 0 on such a tie; stored records
    depend on both rules.)
    """
    correct = 0.0
    total = 0
    for row, label in zip(test_features, test_labels):
        try:
            pair = (decode_operator(int(row[0])), decode_operator(int(row[1])))
        except KeyError:
            continue
        total += 1
        counts = pool.pair_label_counts.get(pair)
        if not counts:
            correct += 0.5
            continue
        zero = counts.get(0, 0)
        one = counts.get(1, 0)
        if zero == one:
            correct += 0.5
            continue
        prediction = 1 if one > zero else 0
        correct += float(prediction == int(label))
    return correct / total if total else 0.5


# ---------------------------------------------------------------------------
# Figure 5 — metric search space and evolution
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryData:
    """Metric trajectory of one locking algorithm on the Fig. 5 design."""

    algorithm: str
    key_bits: List[int]
    global_metric: List[float]
    restricted_metric: List[float]
    bits_to_full_security: Optional[int]

    @classmethod
    def from_tracker(cls, algorithm: str, tracker: MetricTracker) -> "TrajectoryData":
        """Build trajectory data from a recorded metric tracker."""
        bits, global_values, restricted_values = tracker.as_series()
        full = None
        for bit_count, value in zip(bits, global_values):
            if value >= 100.0 - 1e-9:
                full = bit_count
                break
        return cls(algorithm=algorithm, key_bits=list(bits),
                   global_metric=list(global_values),
                   restricted_metric=list(restricted_values),
                   bits_to_full_security=full)


def figure5_design(plus_imbalance: int = 25, shift_imbalance: int = 10,
                   seed: int = 0) -> Design:
    """Build the Fig. 5 example design.

    The design has ``|ODT[(+,-)]| = plus_imbalance`` and
    ``|ODT[(<<,>>)]| = shift_imbalance`` (it contains only ``+`` and ``<<``
    operations, so the imbalances equal the operation counts).
    """
    profile = BenchmarkProfile(
        name="fig5_design",
        description="synthetic design with two imbalanced pairs (Fig. 5)",
        operations={"+": plus_imbalance, "<<": shift_imbalance},
        sequential=False,
    )
    return profile_design(profile, seed=seed)


def figure5_surface(plus_imbalance: int = 25,
                    shift_imbalance: int = 10) -> np.ndarray:
    """The ``M_g_sec`` search-space surface of Fig. 5a."""
    return metric_surface([plus_imbalance, shift_imbalance])


def figure5_trajectories(plus_imbalance: int = 25, shift_imbalance: int = 10,
                         seed: int = 0) -> Dict[str, TrajectoryData]:
    """The metric-evolution curves of Fig. 5b (ERA vs. HRA vs. Greedy).

    The key budget is four times the total imbalance: enough for ERA and
    Greedy to reach full security quickly and for HRA's randomised walk
    (which spends roughly two extra bits per random step) to reach it as well
    — Fig. 5b shows HRA needing more key bits than Greedy.
    """
    design = figure5_design(plus_imbalance, shift_imbalance, seed=seed)
    budget = 4 * (plus_imbalance + shift_imbalance)

    trajectories: Dict[str, TrajectoryData] = {}
    lockers = {
        "era": ERALocker(rng=random.Random(seed + 1), track_metrics=True),
        "hra": HRALocker(rng=random.Random(seed + 2), track_metrics=True),
        "greedy": HRALocker(rng=random.Random(seed + 3), greedy=True,
                            track_metrics=True),
    }
    for name, locker in lockers.items():
        result = locker.lock(design, key_budget=budget)
        assert result.tracker is not None
        trajectories[name] = TrajectoryData.from_tracker(name, result.tracker)
    return trajectories


# ---------------------------------------------------------------------------
# Per-axis sweep tables — scenario-matrix studies (seeds / key size / budget)
# ---------------------------------------------------------------------------

#: Display order of the scenario matrix axes (matches the job-id tag order).
AXIS_ORDER = ("seed", "key_budget_fraction", "time_budget")


@dataclass
class AxisSweepData:
    """Mean KPA along one matrix axis of a scenario run (per locker).

    Attributes:
        axis: Axis name (``seed``, ``key_budget_fraction``, ``time_budget``).
        values: The axis points, numerically sorted.
        kpa: ``{axis_value: {locker: mean KPA}}``.
        counts: ``{axis_value: {locker: number of attack records}}``.
        kpa_ci: ``{axis_value: {locker: 95 % CI half-width}}`` of the cell
            mean over its contributing records (0.0 for single-record
            cells).  On a seed-swept scenario the records of a non-seed
            cell differ by seed, so this is the seed-robustness interval
            of the reported mean.
        benchmark: Set when the sweep aggregates a single benchmark's
            records (the per-(benchmark, axis) view); ``None`` for the
            across-benchmarks aggregate.
    """

    axis: str
    values: List
    kpa: Dict
    counts: Dict
    kpa_ci: Dict = field(default_factory=dict)
    benchmark: Optional[str] = None

    def algorithms(self) -> List[str]:
        """Sorted locker names appearing anywhere on the axis."""
        return sorted({algorithm for cells in self.kpa.values()
                       for algorithm in cells})


def _ci95_half_width(values: Sequence[float]) -> float:
    """95 % confidence half-width of the mean (normal approximation)."""
    if len(values) < 2:
        return 0.0
    arr = np.asarray(values, dtype=float)
    return float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size))


def axis_sweeps_from_records(records,
                             per_benchmark: bool = False
                             ) -> List[AxisSweepData]:
    """Aggregate swept attack records into one :class:`AxisSweepData` per axis.

    Only records carrying matrix-axis tags (the ``axes`` entry written by
    :func:`repro.api.runner.execute_job` for swept jobs) contribute; a store
    of a single-value scenario yields an empty list.  Nothing is
    re-simulated — this is a pure aggregation over stored KPA values.

    Args:
        records: Job records (e.g. ``store.records()``).
        per_benchmark: Aggregate per (benchmark, axis) instead of per axis —
            one sweep per benchmark, with :attr:`AxisSweepData.benchmark`
            set, ordered by benchmark then axis.

    Every cell also carries its 95 % confidence half-width
    (:attr:`AxisSweepData.kpa_ci`), which on seed-swept scenarios measures
    the seed robustness of the cell mean.
    """
    grouped: Dict[tuple, Dict] = {}
    for record in records:
        if record.get("kind") != "attack":
            continue
        axes = record.get("axes") or {}
        try:
            kpa = float(record["result"]["kpa"])
        except (KeyError, TypeError, ValueError):
            continue
        benchmark = str(record.get("benchmark", "?")) if per_benchmark \
            else None
        for axis, value in axes.items():
            cells = grouped.setdefault((benchmark, axis), {}) \
                .setdefault(value, {})
            cells.setdefault(record.get("locker", "?"), []).append(kpa)

    def axis_rank(axis: str) -> tuple:
        if axis in AXIS_ORDER:
            return (0, AXIS_ORDER.index(axis), axis)
        return (1, 0, axis)

    sweeps: List[AxisSweepData] = []
    for benchmark, axis in sorted(grouped,
                                  key=lambda key: (key[0] or "",
                                                   axis_rank(key[1]))):
        by_value = grouped[(benchmark, axis)]
        values = sorted(by_value)
        kpa = {value: {algorithm: sum(vals) / len(vals)
                       for algorithm, vals in by_value[value].items()}
               for value in values}
        counts = {value: {algorithm: len(vals)
                          for algorithm, vals in by_value[value].items()}
                  for value in values}
        kpa_ci = {value: {algorithm: _ci95_half_width(vals)
                          for algorithm, vals in by_value[value].items()}
                  for value in values}
        sweeps.append(AxisSweepData(axis=axis, values=values, kpa=kpa,
                                    counts=counts, kpa_ci=kpa_ci,
                                    benchmark=benchmark))
    return sweeps


#: KPA values reported by the paper (Fig. 6b) — compared in "Fig. 6 HRA
#: margin" of docs/architecture.md and by the shape checks in the benchmark
#: harness.
PAPER_AVERAGE_KPA = {"assure": 74.78, "hra": 74.26, "era": 47.92}
