"""Seeded locker-vs-attack co-evolution over the declarative job stack.

The paper's framing is *deceptive* logic locking: lockers designed against
the attack roster, not just evaluated by it.  This module closes that loop.
A :class:`CoevoLoop` evolves a population of locker *genomes* — an
algorithm choice, a key-budget fraction, and option values drawn from a
declared option space — against the scenario's registered attacks, scoring
each genome by how little key information the attacks recover (KPA) and how
cipher-like the locked design behaves (``avalanche_sensitivity``).

The loop deliberately adds **no new execution machinery**.  Every
generation is expanded into an ordinary plain :class:`Scenario` whose
lockers are the genomes (told apart by their ``label``), and executed by
the ordinary :class:`~repro.api.runner.Runner` into an ordinary per-
generation store.  Everything the job stack already guarantees therefore
holds for free:

* **deterministic** — genomes are derived from the master seed with
  counter-based streams, and fitness reads deterministic records, so the
  whole history is bit-identical serially and on the process pool;
* **resumable mid-generation** — re-running the loop replays completed
  generations from their stores (Runner resume skips recorded jobs) and
  picks up the half-complete one;
* **service-compatible** — :meth:`CoevoLoop.generation_scenario` returns a
  plain scenario, so a generation can be submitted to
  :mod:`repro.api.server` like any other workload.

Typical use::

    scenario = Scenario.from_dict(json.load(open("coevo.json")))
    report = run_coevo(scenario, store_root="runs/coevo")
    print(report.best["label"], report.best["fitness"])
"""

from __future__ import annotations

import zlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .scenario import CoevoSpec, LockerSpec, MetricSpec, Scenario
from .store import ResultsStore, write_json_atomic

#: Registry names that count as the avalanche fitness metric.
_AVALANCHE_NAMES = ("avalanche", "avalanche_sensitivity")

#: KPA of a record-less genome: a locker whose jobs all failed scores as if
#: every attack recovered the full key, so broken genomes never win.
_WORST_KPA = 100.0

ProgressFn = Callable[[int, int, Dict], None]


class CoevoError(ValueError):
    """Raised for scenarios that cannot drive a co-evolution loop."""


def _stream(seed: int, *parts: object) -> random.Random:
    """Counter-based derived stream, same CRC idiom as ``cell_seed``.

    Streams are keyed by *position* (generation, slot, purpose), never by
    fitness values, so resumed and parallel runs draw identical genomes.
    """
    token = "coevo/" + "/".join(str(part) for part in (seed,) + parts)
    return random.Random(zlib.crc32(token.encode("utf-8")) & 0x7FFFFFFF)


def _round_fraction(value: float, lo: float, hi: float) -> float:
    """Clamp to the search interval and round to the genome resolution."""
    return round(min(hi, max(lo, value)), 4)


@dataclass(frozen=True)
class Genome:
    """One point of the locker search space.

    Attributes:
        algorithm: Locker registry name.
        fraction: Key-budget fraction (rounded to 4 decimals).
        options: Option values drawn from the spec's ``option_space``.
    """

    algorithm: str
    fraction: float
    options: Tuple[Tuple[str, object], ...] = ()

    def to_locker(self, label: str) -> LockerSpec:
        """The ordinary scenario locker entry this genome expands to."""
        return LockerSpec(algorithm=self.algorithm,
                          key_budget_fraction=self.fraction,
                          options=dict(self.options), label=label)

    def to_dict(self) -> Dict:
        """JSON form used in the history file."""
        return {"algorithm": self.algorithm, "fraction": self.fraction,
                "options": dict(self.options)}


@dataclass
class CoevoReport:
    """Outcome of one :meth:`CoevoLoop.run` invocation.

    Attributes:
        scenario: The driving scenario (with its ``coevo`` block).
        history: One entry per generation: the scored population, in slot
            order, plus the per-generation store path.
        best: The highest-fitness individual across all generations.
        store_root: Root directory holding ``coevo.json`` and the
            per-generation stores.
        total_jobs: Jobs across all generation scenarios.
        executed_jobs: Jobs actually run (the rest were resumed).
    """

    scenario: Scenario
    history: List[Dict] = field(default_factory=list)
    best: Optional[Dict] = None
    store_root: Optional[str] = None
    total_jobs: int = 0
    executed_jobs: int = 0


class CoevoLoop:
    """Evolve locker genomes against a scenario's attack roster.

    Args:
        scenario: A scenario with a ``coevo`` block.  Its ``benchmarks``,
            ``attacks``, ``samples``, ``scale`` and seed configuration are
            the *evaluation environment*; its ``lockers`` list is ignored
            (genomes replace it) but may seed ``coevo.algorithms`` when
            that is empty.
        store_root: Directory for the history file and per-generation
            stores (``gen-000`` …); ``None`` evaluates in memory with no
            resume support.
        jobs: Worker processes per generation run.
        progress: Optional per-job progress hook, forwarded to the Runner.

    Raises:
        CoevoError: when the scenario has no ``coevo`` block, no resolvable
            locker algorithms, or KPA fitness is requested without attacks.
    """

    def __init__(self, scenario: Scenario,
                 store_root: Union[str, Path, None] = None,
                 jobs: int = 1, progress: Optional[ProgressFn] = None) -> None:
        if scenario.coevo is None:
            raise CoevoError(
                "scenario has no 'coevo' block; add one to drive the "
                "co-evolution loop (see docs/scenario-format.md)")
        self.scenario = scenario
        self.spec: CoevoSpec = scenario.coevo
        self.store_root = Path(store_root) if store_root is not None else None
        self.jobs = jobs
        self.progress = progress

        self.algorithms: Tuple[str, ...] = self.spec.algorithms or tuple(
            dict.fromkeys(spec.algorithm for spec in scenario.lockers))
        if not self.algorithms:
            raise CoevoError(
                "no locker algorithms to evolve: set 'coevo.algorithms' or "
                "declare scenario lockers")
        if self.spec.kpa_weight > 0 and not scenario.attacks:
            raise CoevoError(
                "coevo kpa_weight > 0 needs at least one scenario attack "
                "(the attack roster is the fitness adversary)")

    # -- genome sampling ----------------------------------------------------

    def _random_genome(self, rng: random.Random) -> Genome:
        spec = self.spec
        fraction = _round_fraction(
            rng.uniform(spec.fraction_min, spec.fraction_max),
            spec.fraction_min, spec.fraction_max)
        options = tuple((name, rng.choice(values))
                        for name, values in sorted(spec.option_space.items()))
        return Genome(algorithm=rng.choice(self.algorithms),
                      fraction=fraction, options=options)

    def _mutate(self, parent: Genome, rng: random.Random) -> Genome:
        spec = self.spec
        algorithm = parent.algorithm
        if rng.random() < spec.mutation_rate:
            algorithm = rng.choice(self.algorithms)
        fraction = parent.fraction
        if rng.random() < spec.mutation_rate:
            span = spec.fraction_max - spec.fraction_min
            fraction = _round_fraction(
                fraction + rng.uniform(-1.0, 1.0) * spec.mutation_scale
                * (span if span > 0 else 1.0),
                spec.fraction_min, spec.fraction_max)
        parent_options = dict(parent.options)
        options = tuple(
            (name,
             rng.choice(values) if rng.random() < spec.mutation_rate
             else parent_options.get(name, values[0]))
            for name, values in sorted(spec.option_space.items()))
        return Genome(algorithm=algorithm, fraction=fraction, options=options)

    def initial_population(self) -> List[Genome]:
        """Generation-0 genomes, derived from the master seed only."""
        return [self._random_genome(_stream(self.scenario.seed, 0, slot))
                for slot in range(self.spec.population)]

    def next_population(self, generation: int,
                        ranked: Sequence[Genome]) -> List[Genome]:
        """Elites plus mutated offspring for ``generation``.

        Args:
            generation: The generation being *created* (>= 1).
            ranked: Previous population sorted best-first.
        """
        spec = self.spec
        population: List[Genome] = list(ranked[:spec.elites])
        # Parents come from the top half (at least the best two) so the
        # search exploits good genomes without collapsing onto one.
        pool = max(2, len(ranked) // 2) if len(ranked) > 1 else 1
        for slot in range(spec.elites, spec.population):
            rng = _stream(self.scenario.seed, generation, slot)
            parent = ranked[rng.randrange(min(pool, len(ranked)))]
            population.append(self._mutate(parent, rng))
        return population

    # -- generation execution ----------------------------------------------

    @staticmethod
    def slot_label(genome: Genome, slot: int) -> str:
        """Job-id label of ``genome`` at population ``slot``."""
        return f"{genome.algorithm}-g{slot}"

    def generation_scenario(self, generation: int,
                            population: Sequence[Genome]) -> Scenario:
        """The plain scenario evaluating ``population``.

        The result carries no ``coevo`` block — it is an ordinary workload,
        directly runnable by the Runner or submittable to the scenario
        service.
        """
        base = self.scenario
        metrics = list(base.metrics)
        if self.spec.avalanche_weight > 0 and not any(
                metric.name in _AVALANCHE_NAMES for metric in metrics):
            metrics.append(MetricSpec(
                name="avalanche",
                options={"vectors": self.spec.avalanche_vectors}))
        return Scenario(
            name=f"{base.name}-gen{generation:03d}",
            benchmarks=base.benchmarks,
            lockers=tuple(genome.to_locker(self.slot_label(genome, slot))
                          for slot, genome in enumerate(population)),
            attacks=base.attacks,
            metrics=tuple(metrics),
            samples=base.samples,
            scale=base.scale,
            seed=base.seed,
            seeds=base.seeds,
            retries=base.retries,
            job_timeout=base.job_timeout,
        )

    def _fitness(self, records: Dict[str, Dict],
                 label: str) -> Tuple[float, float, float]:
        """``(fitness, mean_kpa, mean_avalanche)`` of one genome's records."""
        kpa_values: List[float] = []
        avalanche_values: List[float] = []
        for record in records.values():
            if record.get("locker_label", record.get("locker")) != label:
                continue
            if record["kind"] == "attack":
                kpa_values.append(float(record["result"]["kpa"]))
            elif record.get("metric") in _AVALANCHE_NAMES:
                avalanche_values.append(float(record["result"]["mean"]))
        mean_kpa = (sum(kpa_values) / len(kpa_values)
                    if kpa_values else _WORST_KPA)
        mean_avalanche = (sum(avalanche_values) / len(avalanche_values)
                          if avalanche_values else 0.0)
        fitness = (self.spec.kpa_weight * (100.0 - mean_kpa)
                   + self.spec.avalanche_weight * 100.0 * mean_avalanche)
        return round(fitness, 6), round(mean_kpa, 6), round(mean_avalanche, 6)

    def run_generation(self, generation: int,
                       population: Sequence[Genome]) -> Tuple[Dict, object]:
        """Execute one generation and return ``(history_entry, report)``."""
        from .runner import Runner

        scenario = self.generation_scenario(generation, population)
        store = None
        if self.store_root is not None:
            store = ResultsStore(self.store_root / f"gen-{generation:03d}")
        runner = Runner(scenario, store=store, jobs=self.jobs,
                        progress=self.progress)
        report = runner.run()

        scored = []
        for slot, genome in enumerate(population):
            label = self.slot_label(genome, slot)
            fitness, mean_kpa, mean_avalanche = self._fitness(
                report.records, label)
            scored.append({"slot": slot, "label": label,
                           **genome.to_dict(),
                           "fitness": fitness, "kpa": mean_kpa,
                           "avalanche": mean_avalanche})
        # The entry holds only run-independent facts, so the history is
        # bit-identical across ``jobs`` counts, resumes and store locations —
        # executed counts and store paths live on the CoevoReport instead.
        entry = {
            "generation": generation,
            "scenario": scenario.name,
            "jobs": report.total,
            "quarantined": report.quarantined + len(
                [f for f in report.failures if not f.get("skipped")]),
            "population": scored,
            "best": max(scored,
                        key=lambda item: (item["fitness"], -item["slot"])),
        }
        return entry, report

    def _ranked(self, population: Sequence[Genome],
                entry: Dict) -> List[Genome]:
        """Population sorted best-first by the entry's scores (slot ties)."""
        order = sorted(entry["population"],
                       key=lambda item: (-item["fitness"], item["slot"]))
        return [population[item["slot"]] for item in order]

    def run(self) -> CoevoReport:
        """Run every generation and return the full history.

        The history file ``<store_root>/coevo.json`` is rewritten
        atomically after each generation, so an interrupted loop leaves a
        valid prefix; re-running resumes through the per-generation stores
        and reproduces the identical history.
        """
        report = CoevoReport(
            scenario=self.scenario,
            store_root=(str(self.store_root)
                        if self.store_root is not None else None))
        population = self.initial_population()
        for generation in range(self.spec.generations):
            entry, run_report = self.run_generation(generation, population)
            report.history.append(entry)
            report.total_jobs += run_report.total
            report.executed_jobs += run_report.executed
            self._write_history(report)
            if generation + 1 < self.spec.generations:
                population = self.next_population(
                    generation + 1, self._ranked(population, entry))
        report.best = max(
            (entry["best"] for entry in report.history),
            key=lambda item: item["fitness"])
        self._write_history(report)
        return report

    def _write_history(self, report: CoevoReport) -> None:
        if self.store_root is None:
            return
        self.store_root.mkdir(parents=True, exist_ok=True)
        write_json_atomic(self.store_root / "coevo.json", {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "spec": self.spec.to_dict(),
            "algorithms": list(self.algorithms),
            "history": report.history,
            "best": report.best,
        })


def run_coevo(scenario: Scenario,
              store_root: Union[str, Path, None] = None,
              jobs: int = 1,
              progress: Optional[ProgressFn] = None) -> CoevoReport:
    """Run the co-evolution loop of ``scenario`` (see :class:`CoevoLoop`).

    Raises:
        CoevoError: for scenarios without a usable ``coevo`` block.
    """
    return CoevoLoop(scenario, store_root=store_root, jobs=jobs,
                     progress=progress).run()
