"""Declarative scenario descriptions: what to lock, attack and measure.

A :class:`Scenario` is the JSON-serialisable description of one evaluation
workload — the cross product of benchmarks × lockers × attacks × metrics ×
samples, plus the shared scale/seed/budget knobs.  It round-trips losslessly
through ``to_dict``/``from_dict`` (and ``save``/``from_file`` for JSON files)
and expands deterministically into a flat list of :class:`JobSpec` jobs, each
of which is an independent lock → attack (or lock → measure) unit of work
with a stable ``job_id`` — the key of the results store.

Seed derivation is a pure function of ``(seed, benchmark, locker,
sample)``: a scenario with one ``snapshot`` attack is the Fig. 6 evaluation
(``repro-lock evaluate`` emits exactly that scenario) and reproduces it bit
for bit at the same master seed, serially or across a process pool.

Beyond the base cross product, three **matrix axes** turn one scenario into a
parameter sweep without any code:

* ``seeds: [0, 1, 2]`` on the scenario — seed-robustness studies,
* ``key_budget_fractions: [0.25, 0.5, 0.75]`` on a :class:`LockerSpec` —
  key-size sweeps,
* ``time_budgets: [1.0, 4.0, 16.0]`` on an :class:`AttackSpec` — attack
  budget-scaling sweeps.

Each axis value expands into its own concrete single-value :class:`JobSpec`;
swept jobs carry ``axes`` tags that suffix the ``job_id`` (``__seed1``,
``__kb0.5``, ``__tb4``) so records of different axis points never collide in
a results store.  A scenario with *no* axis fields expands exactly as before
the axes existed — same job ids, same seeds, same records.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .registry import attack_names, locker_names, metric_names


class ScenarioError(ValueError):
    """Raised for structurally invalid scenario descriptions."""


def cell_seed(seed: int, benchmark: str, algorithm: str) -> int:
    """Per-(benchmark, locker) seed behind :attr:`JobSpec.cell_seed`.

    ``zlib.crc32`` keeps the value stable across processes (Python's
    built-in ``hash()`` of strings is salted per interpreter run).
    """
    return zlib.crc32(f"{seed}/{benchmark}/{algorithm}".encode()) & 0x7FFFFFFF


def key_budget(fraction: float, benchmark: str, algorithm: str,
               num_operations: int) -> int:
    """Key budget of a cell (fraction of operations; 100 % for N_2046 + ERA).

    The perfectly imbalanced ``N_2046`` needs a dummy per operation for ERA
    to reach balance (Section 5, "Attack setup") — the single definition of
    the special case.
    """
    if benchmark == "N_2046" and algorithm == "era":
        fraction = 1.0
    return max(1, int(round(fraction * num_operations)))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _check_keys(data: Mapping, allowed: Sequence[str], what: str) -> None:
    unknown = set(data) - set(allowed)
    _require(not unknown,
             f"unknown {what} field(s): {', '.join(sorted(unknown))}; "
             f"allowed: {', '.join(allowed)}")


def _check_options(options: Mapping, reserved: Sequence[str],
                   what: str) -> None:
    clash = set(options) & set(reserved)
    _require(not clash,
             f"{what} options must not override the factory arguments the "
             f"runner sets itself: {', '.join(sorted(clash))}")


def _check_axis(values: Sequence, what: str) -> None:
    _require(len(set(values)) == len(values),
             f"duplicate values in {what} axis: {list(values)}")
    # Two values that render to the same job-id tag would silently collapse
    # into one store record, so the *formatted* tags must be unique too.
    tags = [format_axis_value(value) for value in values]
    _require(len(set(tags)) == len(tags),
             f"values in {what} axis are distinct but render to the same "
             f"job-id tag: {list(values)} -> {tags}; use values that differ "
             f"within 6 significant digits")


#: ``axes``-tag → ``job_id`` suffix abbreviation for swept jobs.
AXIS_TAGS = {"seed": "seed", "key_budget_fraction": "kb", "time_budget": "tb"}


def format_axis_value(value: object) -> str:
    """Render one axis value for a ``job_id`` suffix (stable across platforms).

    Floats use ``%g`` so ``0.5`` and ``4.0`` render as ``0.5`` and ``4`` on
    every platform; everything else renders with ``str``.
    """
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


#: Filename-safe locker labels: job ids embed them between ``__`` separators.
_LABEL_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9.\-]*$")


@dataclass(frozen=True)
class LockerSpec:
    """One locking algorithm of a scenario.

    Attributes:
        algorithm: Registry name of the locking algorithm.
        key_budget_fraction: Key budget as a fraction of lockable operations
            (the paper's 75 % default).  The ``N_2046`` + ``era`` special
            case of Section 5 is applied automatically at job level.
        key_budget_fractions: Optional *key-size sweep axis*.  When non-empty
            it replaces ``key_budget_fraction``: every value expands into its
            own job (same locking stream, different budget — a controlled
            key-size comparison) tagged ``kb<value>`` in the ``job_id``.
        options: Extra factory keyword arguments (free-form, JSON-valued).
        label: Optional display/job-id name of this locker entry.  Labels
            let one scenario hold *several configurations of the same
            algorithm* (option variants, co-evolution genomes) side by side:
            the ``job_id`` and the records' ``locker_label`` use the label,
            while seeds stay algorithm-based — so a configuration's results
            depend only on its parameters, never on what it was called.
    """

    algorithm: str
    key_budget_fraction: float = 0.75
    options: Dict[str, object] = field(default_factory=dict)
    key_budget_fractions: Tuple[float, ...] = ()
    label: Optional[str] = None

    def __post_init__(self) -> None:
        _require(bool(self.algorithm), "locker algorithm name is required")
        for fraction in (self.key_budget_fraction,) + tuple(
                self.key_budget_fractions):
            _require(0.0 < fraction <= 1.0,
                     f"key_budget_fraction must be in (0, 1], "
                     f"got {fraction}")
        _check_axis(self.key_budget_fractions, "key_budget_fractions")
        _check_options(self.options, ("rng", "pair_table"), "locker")
        if self.label is not None:
            _require(bool(_LABEL_RE.match(self.label)),
                     f"locker label {self.label!r} is not filename-safe; "
                     "use letters, digits, '.' and '-'")

    @property
    def display_name(self) -> str:
        """The job-id/display name: the label when set, else the algorithm."""
        return self.label if self.label is not None else self.algorithm

    def fraction_axis(self) -> Tuple[float, ...]:
        """The swept key-budget fractions, or the single configured value."""
        return self.key_budget_fractions or (self.key_budget_fraction,)

    @classmethod
    def from_dict(cls, data: Union[str, Mapping]) -> "LockerSpec":
        """Build from a mapping (or a bare algorithm-name string)."""
        if isinstance(data, str):
            return cls(algorithm=data)
        _check_keys(data, ("algorithm", "key_budget_fraction",
                           "key_budget_fractions", "options", "label"),
                    "locker")
        _require("algorithm" in data, "locker needs an 'algorithm' field")
        return cls(algorithm=data["algorithm"],
                   key_budget_fraction=float(
                       data.get("key_budget_fraction", 0.75)),
                   options=dict(data.get("options", {})),
                   key_budget_fractions=tuple(
                       float(value)
                       for value in data.get("key_budget_fractions", ())),
                   label=(str(data["label"])
                          if data.get("label") is not None else None))


@dataclass(frozen=True)
class AttackSpec:
    """One attack of a scenario.

    Attributes:
        name: Registry name of the attack.
        rounds: Relocking rounds of the training set.
        time_budget: Auto-ML search budget of the built-in ``snapshot``
            attack: the number of roster candidates evaluated, cheapest
            first.  It counts candidates, not seconds, so records are
            bit-identical across machines and serial or parallel execution.
        time_budgets: Optional *budget sweep axis*.  When non-empty it
            replaces ``time_budget``: every value expands into its own job
            (same attack stream, different search budget — a controlled
            budget-scaling comparison) tagged ``tb<value>`` in the
            ``job_id``.
        feature_set: Locality feature set, one of
            :data:`repro.attacks.locality.FEATURE_SETS`.
        functional_vectors: Vectors for functional-KPA validation (0 = off).
        options: Extra factory keyword arguments (free-form, JSON-valued).
    """

    name: str = "snapshot"
    rounds: int = 50
    time_budget: float = 10.0
    feature_set: str = "pair"
    functional_vectors: int = 0
    options: Dict[str, object] = field(default_factory=dict)
    time_budgets: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "attack name is required")
        _require(self.rounds >= 1, "attack rounds must be positive")
        for budget in (self.time_budget,) + tuple(self.time_budgets):
            _require(budget > 0, "attack time_budget must be positive")
        _check_axis(self.time_budgets, "time_budgets")
        from ..attacks.locality import FEATURE_SETS
        _require(self.feature_set in FEATURE_SETS,
                 f"unknown attack feature_set {self.feature_set!r}; "
                 f"expected one of {', '.join(FEATURE_SETS)}")
        _require(self.functional_vectors >= 0,
                 "functional_vectors must be non-negative")
        _check_options(self.options,
                       ("rng", "pair_table", "rounds", "time_budget",
                        "feature_set", "functional_vectors"), "attack")

    def budget_axis(self) -> Tuple[float, ...]:
        """The swept time budgets, or the single configured value."""
        return self.time_budgets or (self.time_budget,)

    @classmethod
    def from_dict(cls, data: Union[str, Mapping]) -> "AttackSpec":
        """Build from a mapping (or a bare attack-name string)."""
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, ("name", "rounds", "time_budget", "time_budgets",
                           "feature_set", "functional_vectors", "options"),
                    "attack")
        return cls(name=data.get("name", "snapshot"),
                   rounds=int(data.get("rounds", 50)),
                   time_budget=float(data.get("time_budget", 10.0)),
                   feature_set=str(data.get("feature_set", "pair")),
                   functional_vectors=int(data.get("functional_vectors", 0)),
                   options=dict(data.get("options", {})),
                   time_budgets=tuple(float(value)
                                      for value in data.get("time_budgets",
                                                            ())))


@dataclass(frozen=True)
class MetricSpec:
    """One per-locked-sample metric of a scenario.

    Attributes:
        name: Registry name of the metric.
        options: Keyword arguments passed to the metric callable.
    """

    name: str
    options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "metric name is required")
        _check_options(self.options, ("rng", "design"), "metric")

    @classmethod
    def from_dict(cls, data: Union[str, Mapping]) -> "MetricSpec":
        """Build from a mapping (or a bare metric-name string)."""
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, ("name", "options"), "metric")
        _require("name" in data, "metric needs a 'name' field")
        return cls(name=data["name"], options=dict(data.get("options", {})))


@dataclass(frozen=True)
class CoevoSpec:
    """Co-evolution settings of a scenario (see :mod:`repro.api.coevo`).

    The spec describes the *search*, not the workload: a scenario carrying a
    ``coevo`` block still expands, validates and runs exactly like a plain
    scenario (``expand()`` ignores the block), so the file round-trips
    through every existing tool — including ``repro.api.server`` — unchanged.
    The :class:`~repro.api.coevo.CoevoLoop` reads the block to evolve locker
    configurations (algorithm choice, key-budget fraction, declared option
    genes) against the scenario's attack roster, scoring each genome by KPA
    resistance and avalanche sensitivity.

    Attributes:
        generations: Evolution rounds to run.
        population: Locker genomes per generation.
        elites: Top genomes carried into the next generation unchanged.
        algorithms: Candidate locking algorithms of the genome's algorithm
            gene; empty means "the scenario's own lockers' algorithms".
        fraction_min: Lower bound of the key-budget-fraction gene.
        fraction_max: Upper bound of the key-budget-fraction gene.
        mutation_rate: Per-gene mutation probability of an offspring.
        mutation_scale: Fraction-gene perturbation size, relative to the
            ``[fraction_min, fraction_max]`` interval.
        option_space: ``{option name: [candidate JSON values]}`` — extra
            locker-factory option genes; each genome carries one candidate
            per option.
        kpa_weight: Fitness weight of attack resistance (``100 − mean
            KPA`` over the scenario's attack roster).
        avalanche_weight: Fitness weight of the avalanche-sensitivity term
            (``100 × mean sensitivity`` of the locked samples).
        avalanche_vectors: Vectors of the avalanche metric jobs the loop
            appends when the scenario does not measure avalanche itself.
    """

    generations: int = 4
    population: int = 4
    elites: int = 1
    algorithms: Tuple[str, ...] = ()
    fraction_min: float = 0.25
    fraction_max: float = 1.0
    mutation_rate: float = 0.35
    mutation_scale: float = 0.2
    option_space: Dict[str, Tuple] = field(default_factory=dict)
    kpa_weight: float = 1.0
    avalanche_weight: float = 0.25
    avalanche_vectors: int = 8

    def __post_init__(self) -> None:
        # Normalise gene-value containers so directly constructed specs
        # compare equal to their JSON round-trips.
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "option_space",
                           {name: tuple(values) for name, values
                            in self.option_space.items()})
        _require(self.generations >= 1, "coevo generations must be positive")
        _require(self.population >= 1, "coevo population must be positive")
        _require(0 <= self.elites < self.population,
                 f"coevo elites must be in [0, population), got "
                 f"{self.elites} of {self.population}")
        for bound in (self.fraction_min, self.fraction_max):
            _require(0.0 < bound <= 1.0,
                     f"coevo fraction bounds must be in (0, 1], got {bound}")
        _require(self.fraction_min <= self.fraction_max,
                 "coevo fraction_min must not exceed fraction_max")
        _require(0.0 <= self.mutation_rate <= 1.0,
                 f"coevo mutation_rate must be in [0, 1], "
                 f"got {self.mutation_rate}")
        _require(self.mutation_scale > 0,
                 "coevo mutation_scale must be positive")
        for name, values in self.option_space.items():
            _require(bool(name), "coevo option_space names must be non-empty")
            _require(len(tuple(values)) >= 1,
                     f"coevo option_space entry {name!r} needs at least one "
                     "candidate value")
        _require(self.kpa_weight >= 0 and self.avalanche_weight >= 0,
                 "coevo fitness weights must be non-negative")
        _require(self.kpa_weight > 0 or self.avalanche_weight > 0,
                 "coevo needs at least one positive fitness weight")
        _require(self.avalanche_vectors >= 1,
                 "coevo avalanche_vectors must be positive")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict form (round-trips via :meth:`from_dict`)."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, data: Mapping) -> "CoevoSpec":
        """Build from a mapping (the ``coevo`` block of a scenario file)."""
        _check_keys(data, ("generations", "population", "elites",
                           "algorithms", "fraction_min", "fraction_max",
                           "mutation_rate", "mutation_scale", "option_space",
                           "kpa_weight", "avalanche_weight",
                           "avalanche_vectors"), "coevo")
        option_space = {str(name): tuple(values) for name, values
                        in dict(data.get("option_space", {})).items()}
        return cls(
            generations=int(data.get("generations", 4)),
            population=int(data.get("population", 4)),
            elites=int(data.get("elites", 1)),
            algorithms=tuple(str(name)
                             for name in data.get("algorithms", ())),
            fraction_min=float(data.get("fraction_min", 0.25)),
            fraction_max=float(data.get("fraction_max", 1.0)),
            mutation_rate=float(data.get("mutation_rate", 0.35)),
            mutation_scale=float(data.get("mutation_scale", 0.2)),
            option_space=option_space,
            kpa_weight=float(data.get("kpa_weight", 1.0)),
            avalanche_weight=float(data.get("avalanche_weight", 0.25)),
            avalanche_vectors=int(data.get("avalanche_vectors", 8)),
        )


@dataclass(frozen=True)
class JobSpec:
    """One independent unit of work of an expanded scenario.

    ``kind == "attack"`` jobs lock a fresh sample and attack it;
    ``kind == "metric"`` jobs lock the same sample (same derived seed) and
    evaluate a registered metric on it.  Every job derives its random streams
    from ``(seed, benchmark, locker, sample)`` alone, so jobs execute in any
    order — or in different processes — with identical results.

    ``axes`` carries the matrix-axis tags of a swept job as ordered
    ``(axis_name, value)`` pairs (e.g. ``(("seed", 1),
    ("key_budget_fraction", 0.5))``); each tag suffixes the ``job_id`` so
    records of different axis points never collide.  Jobs of a scenario
    without matrix axes have an empty ``axes`` and the historical ``job_id``.
    """

    kind: str
    benchmark: str
    locker: LockerSpec
    sample: int
    seed: int
    scale: float
    attack: Optional[AttackSpec] = None
    attack_index: int = 0
    metric: Optional[MetricSpec] = None
    metric_index: int = 0
    axes: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        _require(self.kind in ("attack", "metric"),
                 f"unknown job kind {self.kind!r}")
        if self.kind == "attack":
            _require(self.attack is not None, "attack job needs an attack")
        else:
            _require(self.metric is not None, "metric job needs a metric")
        for axis, _ in self.axes:
            _require(axis in AXIS_TAGS,
                     f"unknown job axis {axis!r}; known: "
                     f"{', '.join(sorted(AXIS_TAGS))}")

    @property
    def job_id(self) -> str:
        """Stable identifier (and results-store record name) of the job.

        Swept jobs append one ``__<tag><value>`` segment per matrix axis
        (``__seed1``, ``__kb0.5``, ``__tb4``); single-value jobs keep the
        historical five-segment id.
        """
        if self.kind == "attack":
            assert self.attack is not None
            target = self.attack.name
        else:
            assert self.metric is not None
            target = self.metric.name
        suffix = "".join(f"__{AXIS_TAGS[axis]}{format_axis_value(value)}"
                         for axis, value in self.axes)
        return (f"{self.kind}__{self.benchmark}__{self.locker.display_name}"
                f"__{target}__s{self.sample}{suffix}")

    @property
    def cell_seed(self) -> int:
        """Per-(benchmark, locker) seed (see :func:`cell_seed`)."""
        return cell_seed(self.seed, self.benchmark, self.locker.algorithm)

    @property
    def locker_seed(self) -> int:
        """Seed of the locking rng."""
        return self.cell_seed + 1000 * self.sample

    @property
    def attack_seed(self) -> int:
        """Seed of the attack rng.

        For the first attack of a scenario this is exactly the historical
        ``cell_seed + 1000 * sample + 7``, which keeps single-attack
        scenarios bit-identical to earlier Fig. 6 runs; further attacks
        shift by a fixed stride so every attack draws an independent
        stream.
        """
        return self.cell_seed + 1000 * self.sample + 7 + 1009 * self.attack_index

    @property
    def metric_seed(self) -> int:
        """Seed of the metric rng (independent of lock/attack streams)."""
        return self.cell_seed + 1000 * self.sample + 7919 * (self.metric_index + 1)


@dataclass(frozen=True)
class Scenario:
    """A declarative evaluation workload.

    Attributes:
        name: Scenario name (used for default store paths and reports).
        benchmarks: Benchmark names from :mod:`repro.bench`.
        lockers: Locking algorithms to evaluate.
        attacks: Attacks run against every locked sample.
        metrics: Metrics evaluated on every locked sample.
        samples: Locked samples per (benchmark, locker) — the paper's
            ``n_test_lockings``.
        scale: Benchmark scale factor (1.0 = full size).
        seed: Master seed; every job derives its own streams from it.
        seeds: Optional *seed sweep axis*.  When non-empty it replaces
            ``seed``: the whole workload repeats once per listed seed
            (seed-robustness studies), each repetition tagged ``seed<value>``
            in the ``job_id``.
        retries: Default retry budget of the run — extra attempts a
            transiently failing job may consume before it is quarantined to
            the failure ledger.  ``None`` (the default) means 0; a
            ``Runner(retries=...)`` / ``cli run --retries`` value overrides.
        job_timeout: Default per-job wall-clock budget in seconds; ``None``
            (the default) disables timeouts.  Overridable the same way.
        coevo: Optional :class:`CoevoSpec` — the co-evolution search
            settings consumed by :class:`repro.api.coevo.CoevoLoop`.
            :meth:`expand` ignores it, so the scenario still runs as a
            plain workload everywhere (runner, service, report).

    Both robustness fields (``retries``, ``job_timeout``) are *run*
    defaults, not job data: they are omitted from :meth:`to_dict` when
    unset, so the :meth:`fingerprint` —
    and every store stamp — of a scenario that does not set them is
    unchanged from before they existed.  The same omission rule applies to
    ``coevo``.
    """

    name: str = "scenario"
    benchmarks: Tuple[str, ...] = ()
    lockers: Tuple[LockerSpec, ...] = ()
    attacks: Tuple[AttackSpec, ...] = ()
    metrics: Tuple[MetricSpec, ...] = ()
    samples: int = 10
    scale: float = 1.0
    seed: int = 0
    seeds: Tuple[int, ...] = ()
    retries: Optional[int] = None
    job_timeout: Optional[float] = None
    coevo: Optional[CoevoSpec] = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario name is required")
        _require(self.samples >= 1, "samples must be positive")
        _require(self.scale > 0, "scale must be positive")
        _require(self.retries is None or self.retries >= 0,
                 f"retries must be non-negative, got {self.retries}")
        _require(self.job_timeout is None or self.job_timeout > 0,
                 f"job_timeout must be positive, got {self.job_timeout}")
        _require(bool(self.benchmarks), "scenario needs at least one benchmark")
        _require(bool(self.lockers), "scenario needs at least one locker")
        _require(bool(self.attacks) or bool(self.metrics),
                 "scenario needs at least one attack or metric")
        _check_axis(self.seeds, "seeds")

    def seed_axis(self) -> Tuple[int, ...]:
        """The swept seeds, or the single configured master seed."""
        return self.seeds or (self.seed,)

    def axis_values(self) -> Dict[str, List]:
        """``{axis_name: values}`` of every matrix axis the scenario sweeps.

        Only *swept* axes appear (an axis with a single configured value is
        not a sweep); the values keep their declaration order.  Key-budget
        and time-budget axes merge the values of every locker/attack that
        sweeps them.
        """
        axes: Dict[str, List] = {}
        if self.seeds:
            axes["seed"] = list(self.seeds)
        fractions = [f for locker in self.lockers
                     for f in locker.key_budget_fractions]
        if fractions:
            axes["key_budget_fraction"] = list(dict.fromkeys(fractions))
        budgets = [b for attack in self.attacks for b in attack.time_budgets]
        if budgets:
            axes["time_budget"] = list(dict.fromkeys(budgets))
        return axes

    # ------------------------------------------------------------- validation

    def validate(self, registries: bool = True) -> "Scenario":
        """Validate the scenario beyond per-field checks.

        Args:
            registries: Also check every component name against the live
                registries and every benchmark against the benchmark
                registry (on by default; turn off to describe scenarios for
                components registered later).

        Raises:
            ScenarioError: naming duplicates or unknown components.
        """
        locker_ids = [spec.display_name for spec in self.lockers]
        _require(len(set(locker_ids)) == len(locker_ids),
                 "duplicate locker names in scenario (give repeated "
                 "algorithms distinct 'label' fields)")
        attack_ids = [spec.name for spec in self.attacks]
        _require(len(set(attack_ids)) == len(attack_ids),
                 "duplicate attacks in scenario")
        metric_ids = [spec.name for spec in self.metrics]
        _require(len(set(metric_ids)) == len(metric_ids),
                 "duplicate metrics in scenario")
        if registries:
            from ..bench import benchmark_names
            known_benchmarks = set(benchmark_names())
            for benchmark in self.benchmarks:
                _require(benchmark in known_benchmarks,
                         f"unknown benchmark {benchmark!r}; available: "
                         f"{', '.join(sorted(known_benchmarks))}")
            known_lockers = set(locker_names(include_aliases=True))
            for spec in self.lockers:
                _require(spec.algorithm in known_lockers,
                         f"unknown locking algorithm {spec.algorithm!r}; "
                         f"registered: {', '.join(sorted(known_lockers))}")
            if self.coevo is not None:
                for algorithm in self.coevo.algorithms:
                    _require(algorithm in known_lockers,
                             f"unknown coevo algorithm {algorithm!r}; "
                             f"registered: "
                             f"{', '.join(sorted(known_lockers))}")
            known_attacks = set(attack_names(include_aliases=True))
            for attack_id in attack_ids:
                _require(attack_id in known_attacks,
                         f"unknown attack {attack_id!r}; registered: "
                         f"{', '.join(sorted(known_attacks))}")
            known_metrics = set(metric_names(include_aliases=True))
            for metric_id in metric_ids:
                _require(metric_id in known_metrics,
                         f"unknown metric {metric_id!r}; registered: "
                         f"{', '.join(sorted(known_metrics))}")
        return self

    # ------------------------------------------------------------ (de)serialise

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-ready dict form (round-trips via :meth:`from_dict`).

        The form is JSON-canonical (lists, not tuples), so a dict that went
        through ``json.dumps``/``json.loads`` compares equal to a fresh one.
        Empty matrix-axis fields (``seeds``, ``key_budget_fractions``,
        ``time_budgets``) are omitted, so the dict — and therefore the
        :meth:`fingerprint` and every store stamp — of a scenario without
        axes is identical to what it was before the axes existed.
        """
        data = json.loads(json.dumps(asdict(self)))
        if not data.get("seeds"):
            data.pop("seeds", None)
        for optional in ("retries", "job_timeout", "coevo"):
            if data.get(optional) is None:
                data.pop(optional, None)
        for component_key, axis_key in (("lockers", "key_budget_fractions"),
                                        ("attacks", "time_budgets")):
            for entry in data.get(component_key, ()):
                if not entry.get(axis_key):
                    entry.pop(axis_key, None)
        for entry in data.get("lockers", ()):
            if entry.get("label") is None:
                entry.pop("label", None)
        return data

    @classmethod
    def from_dict(cls, data: Mapping, validate: bool = True) -> "Scenario":
        """Build a scenario from its dict form.

        Args:
            data: Mapping as produced by :meth:`to_dict` (component entries
                may also be bare name strings).
            validate: Run :meth:`validate` against the live registries.

        Raises:
            ScenarioError: for unknown fields, invalid values or (with
                ``validate``) unknown component names.
        """
        _check_keys(data, ("name", "benchmarks", "lockers", "attacks",
                           "metrics", "samples", "scale", "seed", "seeds",
                           "retries", "job_timeout", "coevo"),
                    "scenario")
        scenario = cls(
            name=str(data.get("name", "scenario")),
            benchmarks=tuple(data.get("benchmarks", ())),
            lockers=tuple(LockerSpec.from_dict(item)
                          for item in data.get("lockers", ())),
            attacks=tuple(AttackSpec.from_dict(item)
                          for item in data.get("attacks", ())),
            metrics=tuple(MetricSpec.from_dict(item)
                          for item in data.get("metrics", ())),
            samples=int(data.get("samples", 10)),
            scale=float(data.get("scale", 1.0)),
            seed=int(data.get("seed", 0)),
            seeds=tuple(int(value) for value in data.get("seeds", ())),
            retries=(int(data["retries"])
                     if data.get("retries") is not None else None),
            job_timeout=(float(data["job_timeout"])
                         if data.get("job_timeout") is not None else None),
            coevo=(CoevoSpec.from_dict(data["coevo"])
                   if data.get("coevo") is not None else None),
        )
        if validate:
            scenario.validate()
        return scenario

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str, validate: bool = True) -> "Scenario":
        """Parse a scenario from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        _require(isinstance(data, dict), "scenario JSON must be an object")
        return cls.from_dict(data, validate=validate)

    def save(self, path: Path) -> Path:
        """Write the scenario as JSON to ``path``."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_file(cls, path: Path, validate: bool = True) -> "Scenario":
        """Load a scenario from a JSON file."""
        path = Path(path)
        if not path.exists():
            raise ScenarioError(f"scenario file {path} does not exist")
        return cls.from_json(path.read_text(), validate=validate)

    def fingerprint(self) -> str:
        """Stable content hash of the scenario (recorded in the manifest)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return format(zlib.crc32(canonical.encode()) & 0xFFFFFFFF, "08x")

    # -------------------------------------------------------------- expansion

    def expand(self) -> List[JobSpec]:
        """Expand into the flat, ordered job list (the scenario's run plan).

        Jobs are ordered benchmark-major, then locker, then locker
        key-budget axis, then seed axis, then sample, then attacks (budget
        axis innermost) before metrics — for a scenario without matrix axes
        the axis loops collapse to singletons and the order is the Fig. 6
        cell order (benchmark rows, locker columns), which
        :attr:`RunReport.records <repro.api.runner.RunReport.records>`
        follows for any ``jobs`` count.  The expansion is a pure function of
        the scenario (declaration order, no hashing or platform-dependent
        iteration), so the run plan is stable across platforms and
        processes.
        """
        jobs: List[JobSpec] = []
        for benchmark in self.benchmarks:
            for locker in self.lockers:
                for fraction in locker.fraction_axis():
                    if locker.key_budget_fractions:
                        point_locker = replace(locker,
                                               key_budget_fraction=fraction,
                                               key_budget_fractions=())
                        locker_axes: Tuple[Tuple[str, object], ...] = (
                            ("key_budget_fraction", fraction),)
                    else:
                        point_locker, locker_axes = locker, ()
                    for seed in self.seed_axis():
                        seed_axes: Tuple[Tuple[str, object], ...] = (
                            (("seed", seed),) if self.seeds else ())
                        base_axes = seed_axes + locker_axes
                        for sample in range(self.samples):
                            jobs.extend(self._expand_cell(
                                benchmark, point_locker, seed, sample,
                                base_axes))
        return jobs

    def _expand_cell(self, benchmark: str, locker: LockerSpec, seed: int,
                     sample: int,
                     base_axes: Tuple[Tuple[str, object], ...],
                     ) -> List[JobSpec]:
        """Jobs of one (benchmark, locker, seed, sample) cell of the matrix.

        Budget-swept attacks keep their declared ``attack_index`` for every
        budget point, so all points of one sweep share the attack's random
        stream and differ *only* in the search budget — a controlled
        comparison.
        """
        jobs: List[JobSpec] = []
        for attack_index, attack in enumerate(self.attacks):
            for budget in attack.budget_axis():
                if attack.time_budgets:
                    point_attack = replace(attack, time_budget=budget,
                                           time_budgets=())
                    axes = base_axes + (("time_budget", budget),)
                else:
                    point_attack, axes = attack, base_axes
                jobs.append(JobSpec(
                    kind="attack", benchmark=benchmark, locker=locker,
                    sample=sample, seed=seed, scale=self.scale,
                    attack=point_attack, attack_index=attack_index,
                    axes=axes))
        for metric_index, metric in enumerate(self.metrics):
            jobs.append(JobSpec(
                kind="metric", benchmark=benchmark, locker=locker,
                sample=sample, seed=seed, scale=self.scale,
                metric=metric, metric_index=metric_index, axes=base_axes))
        return jobs
