"""The lock → attack → KPA experiment pipeline of Section 5.

:class:`SnapShotExperiment` reproduces the paper's evaluation protocol:

* every benchmark is locked ``n_test_lockings`` times with different keys by
  each locking algorithm (ASSURE serial, HRA, ERA) — these are the *test*
  samples,
* the key budget is ``key_budget_fraction`` (75 % in the paper) of the
  benchmark's lockable operations (ERA may exceed it, and the fully
  imbalanced ``N_2046`` requires a 100 % budget for ERA),
* each test sample is attacked by the RTL SnapShot attack, whose training set
  is assembled by relocking the sample with random ASSURE locking,
* attack success is reported as KPA per benchmark/algorithm and averaged.

All sizes (scale, relocking rounds, auto-ML budget) are configurable so the
same pipeline drives both the full reproduction and the quick-running smoke
benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..api import registry as _registry
from ..attacks.kpa import KpaAggregate, KpaSample, aggregate_by
from ..attacks.snapshot import AttackResult
from ..bench.registry import benchmark_names
from ..locking.pairs import PairTable

#: Locking algorithms evaluated in the paper's Fig. 6.
DEFAULT_ALGORITHMS = ("assure", "hra", "era")


def make_locker(algorithm: str, rng: random.Random,
                pair_table: Optional[PairTable] = None,
                track_metrics: bool = False):
    """Instantiate a locking algorithm by name.

    Thin lookup into the :mod:`repro.api` locker registry — algorithms
    registered with :func:`repro.api.register_locker` (built-in or
    third-party) are all constructible here.

    Args:
        algorithm: Registered algorithm name (``assure``, ``assure-random``,
            ``hra``, ``greedy``, ``era``, ... — see
            :func:`repro.api.locker_names`).
        rng: Random source handed to the locker.
        pair_table: Pair table override.
        track_metrics: Enable metric-trajectory tracking.

    Raises:
        ValueError: for unregistered algorithm names.
    """
    return _registry.make_locker(algorithm, rng, pair_table=pair_table,
                                 track_metrics=track_metrics)


def attack_result_from_record(record: Mapping) -> AttackResult:
    """Rebuild an :class:`AttackResult` from a results-store job record."""
    result = record["result"]
    return AttackResult(
        design_name=result["design_name"],
        predicted_key=[int(b) for b in result["predicted_key"]],
        correct_key=[int(b) for b in result["correct_key"]],
        kpa=float(result["kpa"]),
        model_name=result["model_name"],
        training_size=int(result["training_size"]),
        per_bit_correct=[bool(b) for b in result["per_bit_correct"]],
        metadata=dict(result.get("metadata", {})),
        functional_kpa=result.get("functional_kpa"),
    )


@dataclass
class ExperimentConfig:
    """Configuration of one evaluation run.

    Attributes:
        benchmarks: Benchmark names (defaults to the paper's 14 designs).
        algorithms: Locking algorithms to evaluate.
        scale: Benchmark scale factor (1.0 = full size).
        key_budget_fraction: Key budget as a fraction of lockable operations.
        n_test_lockings: Locked samples per benchmark/algorithm (paper: 10).
        relock_rounds: Relocking rounds per attacked sample (paper: 1000).
        automl_time_budget: Auto-ML search budget in seconds per attack.
        feature_set: Locality feature set for the attack (``pair``,
            ``extended`` or ``behavioral``).
        functional_vectors: When positive, every attack additionally
            batch-simulates its predicted key against the correct key on this
            many input vectors and reports the match rate as
            ``AttackResult.functional_kpa`` (0 disables the simulation and
            leaves the bit-level KPA pipeline untouched).
        pair_table: Pair table used by lockers and the attacker's relocking.
        seed: Master seed; every sub-step derives its own stream from it.
    """

    benchmarks: Sequence[str] = field(default_factory=benchmark_names)
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS
    scale: float = 1.0
    key_budget_fraction: float = 0.75
    n_test_lockings: int = 10
    relock_rounds: int = 50
    automl_time_budget: float = 10.0
    feature_set: str = "pair"
    functional_vectors: int = 0
    pair_table: Optional[PairTable] = None
    seed: int = 0

    def to_scenario(self, name: str = "evaluate"):
        """The declarative :class:`repro.api.Scenario` equivalent of this config.

        Running the scenario reproduces :meth:`SnapShotExperiment.run` bit
        for bit at the same seed (both execute the same self-seeded jobs
        with the deterministic auto-ML budget).  ``pair_table`` is a runtime
        object and is *not* part of the scenario; pass it to the
        :class:`repro.api.Runner` instead.
        """
        from ..api.scenario import Scenario

        return Scenario.from_experiment_config(self, name=name)


@dataclass
class CellResult:
    """All attack results of one (benchmark, algorithm) cell."""

    benchmark: str
    algorithm: str
    attacks: List[AttackResult] = field(default_factory=list)
    key_budget: int = 0
    num_operations: int = 0

    @property
    def mean_kpa(self) -> float:
        """Mean KPA over the cell's locked samples."""
        if not self.attacks:
            raise ValueError("cell holds no attack results")
        return sum(result.kpa for result in self.attacks) / len(self.attacks)


@dataclass
class ExperimentResult:
    """Aggregated outcome of an evaluation run."""

    config: ExperimentConfig
    cells: List[CellResult] = field(default_factory=list)

    def kpa_samples(self) -> List[KpaSample]:
        """Flatten every attack into a :class:`KpaSample`."""
        samples: List[KpaSample] = []
        for cell in self.cells:
            for attack in cell.attacks:
                metadata = dict(attack.metadata)
                if attack.functional_kpa is not None:
                    metadata["functional_kpa"] = attack.functional_kpa
                samples.append(KpaSample(
                    design_name=cell.benchmark,
                    algorithm=cell.algorithm,
                    value=attack.kpa,
                    key_width=attack.key_width,
                    metadata=metadata,
                ))
        return samples

    def kpa_table(self) -> Dict[str, Dict[str, float]]:
        """Return ``{benchmark: {algorithm: mean KPA}}`` (the Fig. 6a data)."""
        table: Dict[str, Dict[str, float]] = {}
        for cell in self.cells:
            table.setdefault(cell.benchmark, {})[cell.algorithm] = cell.mean_kpa
        return table

    def average_kpa(self) -> Dict[str, float]:
        """Return ``{algorithm: average KPA over benchmarks}`` (Fig. 6b)."""
        aggregates = aggregate_by(self.kpa_samples(), key="algorithm")
        return {name: agg.mean for name, agg in aggregates.items()}

    def aggregate_by_benchmark(self) -> Dict[str, KpaAggregate]:
        """Aggregate KPA per benchmark across all algorithms."""
        return aggregate_by(self.kpa_samples(), key="design_name")

    @classmethod
    def from_records(cls, config: ExperimentConfig,
                     records: Mapping[str, Mapping]) -> "ExperimentResult":
        """Rebuild an experiment result from runner/store job records.

        Args:
            config: The configuration the records were produced under (its
                benchmark/algorithm lists define the cell order).
            records: ``{job_id: record}`` as returned by
                :meth:`repro.api.Runner.run` or read from a
                :class:`repro.api.ResultsStore`.
        """
        by_cell: Dict[tuple, List[Mapping]] = {}
        for record in records.values():
            if record.get("kind") != "attack":
                continue
            key = (record["benchmark"], record["locker"])
            by_cell.setdefault(key, []).append(record)

        result = cls(config=config)
        for benchmark in config.benchmarks:
            for algorithm in config.algorithms:
                cell_records = sorted(by_cell.get((benchmark, algorithm), []),
                                      key=lambda r: int(r["sample"]))
                if not cell_records:
                    continue
                cell = CellResult(
                    benchmark=benchmark, algorithm=algorithm,
                    key_budget=int(cell_records[0]["key_budget"]),
                    num_operations=int(cell_records[0]["num_operations"]),
                    attacks=[attack_result_from_record(record)
                             for record in cell_records],
                )
                result.cells.append(cell)
        return result


class SnapShotExperiment:
    """Runs the full lock → attack → KPA pipeline of Section 5."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()

    # ---------------------------------------------------------------- running

    def run(self, progress: Optional[Callable[[int, int, CellResult], None]]
            = None, jobs: int = 1, store=None,
            resume: bool = True) -> ExperimentResult:
        """Run every (benchmark, algorithm) cell of the configuration.

        The experiment is expressed as a :class:`repro.api.Scenario` and
        executed by the :class:`repro.api.Runner` — one lock → attack job
        per (benchmark, algorithm, sample), with the exact per-cell seed
        derivation this class used historically.  Results are a pure
        function of the configuration: independent of ``jobs``, machine
        speed and CPU load, because the scenario path runs the auto-ML
        search in deterministic-budget mode (one candidate per budget
        second) instead of the wall-clock deadline the pre-scenario
        pipeline used — so absolute KPA values may differ from historical
        wall-clock runs, but never between two invocations of this method.
        Functional validation (``functional_vectors > 0``) draws every
        sample's evaluation plan from the process-wide cache, so repeated
        checks of one locked sample compile its netlist exactly once.

        Args:
            progress: Optional callback invoked as
                ``progress(done_cells, total_cells, cell)`` after every
                completed (benchmark, algorithm) cell.
            jobs: Worker processes (1 = in-process; >1 requires
                ``config.pair_table`` to be ``None``).
            store: Optional :class:`repro.api.ResultsStore` making the run
                resumable.
            resume: Skip jobs already present in ``store``.
        """
        from ..api.runner import Runner

        config = self.config
        scenario = config.to_scenario()
        total_cells = len(config.benchmarks) * len(config.algorithms)
        per_cell: Dict[tuple, List[dict]] = {}
        done_cells = 0

        def on_record(done: int, total: int, record: dict) -> None:
            nonlocal done_cells
            if progress is None or record.get("kind") != "attack":
                return
            key = (record["benchmark"], record["locker"])
            cell_records = per_cell.setdefault(key, [])
            cell_records.append(record)
            if len(cell_records) == config.n_test_lockings:
                done_cells += 1
                cell = CellResult(
                    benchmark=key[0], algorithm=key[1],
                    key_budget=int(cell_records[0]["key_budget"]),
                    num_operations=int(cell_records[0]["num_operations"]),
                    attacks=[attack_result_from_record(r)
                             for r in sorted(cell_records,
                                             key=lambda r: int(r["sample"]))],
                )
                progress(done_cells, total_cells, cell)

        runner = Runner(scenario, store=store, jobs=jobs, resume=resume,
                        progress=on_record, pair_table=config.pair_table)
        report = runner.run()
        # The legacy experiment pipeline keeps its historical fail-fast
        # contract: a partial matrix would silently skew the aggregates.
        report.raise_for_failures()
        return ExperimentResult.from_records(config, report.records)
