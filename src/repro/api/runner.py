"""Scenario execution: expand to jobs, run serially or on a process pool.

The :class:`Runner` turns a declarative :class:`~repro.api.scenario.Scenario`
into its flat job list (lock → attack and lock → measure units), skips jobs
whose record already exists in the attached
:class:`~repro.api.store.ResultsStore`, and executes the remainder either
in-process (``jobs=1``) or on a ``ProcessPoolExecutor``.

Parallel runs are *plan-cache aware* (the PR 2 open item): every job warms
the process-wide plan cache with its locked sample's plan
(:func:`repro.sim.warm_plan_cache`) before any simulation-backed step, so
the batch-simulation consumers inside a worker — functional KPA, corruption
metrics, avalanche studies — compile every distinct netlist once per worker
instead of once per call.  Base benchmark designs are generated once per
process and shared read-only across jobs (lockers copy before mutating).

Parallel dispatch is additionally *cost-aware*: :func:`schedule_chunks`
estimates every pending job's cost (design gate count × rounds × budget, see
:meth:`JobSpec.estimated_cost <repro.api.scenario.JobSpec.estimated_cost>`)
and submits benchmark-affine chunks largest-first, so the expensive cells of
a scenario matrix start immediately and the cheap ones backfill the pool's
tail.  Each record carries its measured ``elapsed_seconds`` and the store
manifest pairs it with the estimate, so the cost model can be validated from
any finished run (``repro.cli report`` prints the comparison).

Execution itself is delegated to a pluggable
:class:`~repro.api.backends.ExecutorBackend` (``"serial"`` or ``"process"``
built in, registry-extensible) and wrapped in a *fault-tolerance layer*:
failed attempts are classified transient-vs-permanent
(:func:`~repro.api.backends.classify_failure`), transient failures retry
under a seeded-deterministic backoff
(:class:`~repro.api.backends.RetryPolicy`) and per-job wall-clock timeouts,
and a job that exhausts its budget is *quarantined* — appended to the
store's ``failures.jsonl`` ledger and reported in
:attr:`RunReport.failures` — while the run completes with every other
record committed.  A resumed run skips known-poison jobs unless the retry
budget was raised.  A deterministic
:class:`~repro.api.faults.FaultPlan` can inject crashes, hangs, transient
errors, slow-downs and corrupt writes, so every one of those paths is an
ordinary CI regression test.

Every job derives its random streams from ``(seed, benchmark, locker,
sample)`` alone (see :class:`~repro.api.scenario.JobSpec`), so serial and
parallel executions of the same scenario produce bit-identical records —
with or without retries, under any backend.
"""

from __future__ import annotations

import logging
import random
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .backends import (ExecutorBackend, ExecutionRound, JobOutcome,
                       RetryPolicy, classify_failure, make_backend)
from .registry import make_attack, make_locker, make_metric
from .scenario import JobSpec, Scenario
from .store import ResultsStore

#: Signature of the runner progress callback: ``progress(done, total, record)``.
ProgressFn = Callable[[int, int, Dict], None]

_log = logging.getLogger(__name__)

#: Base designs kept per process (jobs share them read-only).
_DESIGN_CACHE_SIZE = 8

#: Characters of a failure traceback kept in a ledger entry.
_LEDGER_ERROR_CHARS = 4000


_design_cache: "OrderedDict[Tuple[str, float, int], object]" = OrderedDict()


def _load_base_design(benchmark: str, scale: float, seed: int):
    """Load a benchmark once per process and share it across jobs.

    Every job of a benchmark shares one generated base design through this
    cache.  Sharing is safe because lockers deep-copy the design before
    mutating (``in_place`` defaults to False).
    """
    from ..bench import load_benchmark

    key = (benchmark, scale, seed)
    design = _design_cache.get(key)
    if design is None:
        design = load_benchmark(benchmark, scale=scale, seed=seed)
        _design_cache[key] = design
        while len(_design_cache) > _DESIGN_CACHE_SIZE:
            _design_cache.popitem(last=False)
    else:
        _design_cache.move_to_end(key)
    return design


def _json_safe(value):
    """Recursively coerce numpy scalars/arrays and tuples to JSON types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def key_budget_for(job: JobSpec, num_operations: int) -> int:
    """Key budget of a job (see :func:`repro.api.scenario.key_budget`)."""
    from .scenario import key_budget

    return key_budget(job.locker.key_budget_fraction, job.benchmark,
                      job.locker.algorithm, num_operations)


def execute_job(job: JobSpec, max_lanes: Optional[int] = None,
                fault_plan=None, attempt: int = 0,
                in_worker: bool = False) -> Dict:
    """Execute one job and return its (JSON-ready) record.

    The lock step seeds its locker with :attr:`JobSpec.locker_seed`; the
    locked sample's evaluation plan — compiled once through the full
    ``repro.sim.plan`` pass pipeline, sweep-value-numbering tags
    included — is warmed into the process-wide cache before any
    simulation-backed step, so every key sweep and metric inside the job
    starts from a cache hit.

    The whole job runs under a :func:`repro.sim.lane_limit` scope —
    ``max_lanes`` (the runner override) if set, else the job's scenario-level
    ``max_lanes``, else ``"auto"`` — so every simulation sweep inside it is
    memory-bounded by default.  Tiling is bit-identical to the unchunked
    pass, so records are unchanged.

    Args:
        job: The job to execute.
        max_lanes: Runner-level lane cap (overrides the job's own).
        fault_plan: Optional :class:`~repro.api.faults.FaultPlan`; its
            pre-execution faults (crash/hang/transient/slow) are injected
            here, before the job body, so every backend exercises the same
            failure surface.
        attempt: Zero-based attempt number (feeds fault-plan decisions).
        in_worker: True inside a pool worker process, where an injected
            crash may genuinely kill the process.
    """
    from ..sim import lane_limit, warm_plan_cache

    if fault_plan is not None:
        fault_plan.apply(job.job_id, attempt, in_worker=in_worker)
    effective = max_lanes if max_lanes is not None else job.max_lanes
    with lane_limit(effective if effective is not None else "auto"):
        return _execute_job_body(job, warm_plan_cache)


def _execute_job_body(job: JobSpec, warm_plan_cache) -> Dict:
    started = time.perf_counter()
    design = _load_base_design(job.benchmark, job.scale, job.seed)
    num_operations = design.num_operations()
    budget = key_budget_for(job, num_operations)

    locker = make_locker(job.locker.algorithm,
                         random.Random(job.locker_seed),
                         **job.locker.options)
    locked = locker.lock(design, key_budget=budget)

    record: Dict = {
        "job_id": job.job_id,
        "kind": job.kind,
        "benchmark": job.benchmark,
        "locker": job.locker.algorithm,
        "sample": job.sample,
        "seed": job.seed,
        "scale": job.scale,
        "key_budget": budget,
        "num_operations": num_operations,
        "key_width": locked.design.key_width,
    }
    if job.locker.label is not None:
        # Labelled lockers (option variants, coevo genomes) tag their
        # records so aggregations can tell configurations of the same
        # algorithm apart; unlabelled jobs keep the historical record shape.
        record["locker_label"] = job.locker.label
    if job.axes:
        # Swept jobs carry their matrix-axis point so sweep tables can be
        # rendered from records alone; single-value jobs keep the exact
        # record shape of the pre-axes store format.
        record["axes"] = dict(job.axes)

    if job.kind == "attack":
        assert job.attack is not None
        spec = job.attack
        if spec.functional_vectors > 0:
            warm_plan_cache(locked.design)
        attack = make_attack(spec.name, random.Random(job.attack_seed),
                             rounds=spec.rounds,
                             time_budget=spec.time_budget,
                             feature_set=spec.feature_set,
                             functional_vectors=spec.functional_vectors,
                             **spec.options)
        result = attack.attack(locked.design, algorithm=job.locker.algorithm)
        record["attack"] = spec.name
        record["result"] = _json_safe({
            "design_name": result.design_name,
            "predicted_key": list(result.predicted_key),
            "correct_key": list(result.correct_key),
            "kpa": result.kpa,
            "model_name": result.model_name,
            "training_size": result.training_size,
            "per_bit_correct": list(result.per_bit_correct),
            "metadata": dict(result.metadata),
            "functional_kpa": result.functional_kpa,
        })
    else:
        assert job.metric is not None
        spec_m = job.metric
        warm_plan_cache(locked.design)
        metric = make_metric(spec_m.name)
        value = metric(locked.design, rng=random.Random(job.metric_seed),
                       **spec_m.options)
        record["metric"] = spec_m.name
        record["result"] = _json_safe(value)

    record["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    return record


def schedule_chunks(todo: Sequence[Tuple[int, JobSpec]],
                    workers: int) -> List[List[int]]:
    """Group pending jobs into cost-ordered dispatch chunks (largest first).

    Scheduling balances two goals:

    * **cache affinity** — jobs group by benchmark so one worker's
      per-process base-design and plan caches serve all samples of the
      designs it attacks; each group splits into at most ``workers`` chunks
      so small scenarios still use every worker;
    * **pool utilisation** — jobs within a group sort by
      :meth:`JobSpec.estimated_cost <repro.api.scenario.JobSpec.estimated_cost>`
      (largest first) and the chunks are dispatched in descending total-cost
      order, the classic longest-processing-time heuristic: the expensive
      work starts immediately and the cheap chunks backfill the pool's tail
      instead of straggling at the end.

    Within a benchmark group the jobs are dealt greedily onto up to
    ``workers`` chunks, always to the least-loaded one (so the chunk totals
    come out balanced — a contiguous split would concentrate all the
    expensive sweep points of a matrix into one straggler chunk).  Ties
    break on job index, so the dispatch order is deterministic; job
    *records* are order-independent either way (every job is self-seeded).

    Returns:
        Chunks of indices into the expanded job list, in dispatch order.
    """
    groups: Dict[str, List[int]] = {}
    costs: Dict[int, float] = {}
    for index, job in todo:
        groups.setdefault(job.benchmark, []).append(index)
        costs[index] = job.estimated_cost()
    chunks: List[List[int]] = []
    for indices in groups.values():
        indices.sort(key=lambda i: (-costs[i], i))
        n_chunks = min(workers, len(indices))
        buckets: List[List[int]] = [[] for _ in range(n_chunks)]
        loads = [0.0] * n_chunks
        for index in indices:
            slot = min(range(n_chunks), key=lambda b: (loads[b], b))
            buckets[slot].append(index)
            loads[slot] += costs[index]
        chunks.extend(buckets)
    chunks.sort(key=lambda chunk: (-sum(costs[i] for i in chunk), chunk[0]))
    return chunks


@dataclass
class RunReport:
    """Outcome of one :meth:`Runner.run` invocation.

    Attributes:
        scenario: The executed scenario.
        total: Number of jobs in the expanded scenario.
        executed: Jobs actually run in this invocation.
        skipped: Jobs skipped because their store record already existed.
        records: ``{job_id: record}`` for *every* job of the scenario
            (executed now or loaded from the store), in expansion order
            whatever the backend's completion order.
        store_path: Store directory, or ``None`` for in-memory runs.
        failures: One ledger-style entry per job that failed past its retry
            budget this run — or was skipped as known-poison on resume
            (``entry["skipped"]`` is then True).  Empty on a clean run.
        quarantined: Number of jobs skipped because the failure ledger
            already held them (resume with an unchanged retry budget).
    """

    scenario: Scenario
    total: int
    executed: int
    skipped: int
    records: Dict[str, Dict] = field(default_factory=dict)
    store_path: Optional[str] = None
    failures: List[Dict] = field(default_factory=list)
    quarantined: int = 0

    def kpa_samples(self) -> List:
        """Flatten every attack record into ``KpaSample`` objects."""
        from .store import kpa_samples_from_records

        return kpa_samples_from_records(self.records.values())

    def average_kpa(self) -> Dict[str, float]:
        """``{locker: mean KPA over all attack records}`` (Fig. 6b style)."""
        from ..attacks.kpa import aggregate_by

        return {name: agg.mean
                for name, agg in aggregate_by(self.kpa_samples(),
                                              key="algorithm").items()}


class Runner:
    """Expands a scenario into jobs and executes them.

    Args:
        scenario: The workload description.
        store: Results store for records and resumability; ``None`` keeps all
            records in memory only (no resume support).
        jobs: Worker processes; 1 (the default) runs in-process.  With
            ``jobs > 1``, third-party components must be registered at
            *import time* of a module the workers also import (built-ins
            always are): under a spawn/forkserver start method a worker
            that cannot resolve a component name fails that job group with
            the registry's unknown-component error.
        resume: Skip jobs whose store record already exists (on by default).
        progress: Optional ``progress(done, total, record)`` callback fired
            after every completed (or skipped) job — the same liveness-hook
            convention as :meth:`SnapShotAttack.attack_many`.  A raising
            hook is logged and ignored: an observer must not abort the run.
        max_lanes: Runtime override of the scenario's ``max_lanes`` lane
            limit (peak lane width of one bit-parallel simulation pass).
            When both are unset, jobs run under the automatic per-plan cap
            (:func:`repro.sim.auto_max_lanes`); tiling is bit-identical, so
            records never depend on the setting.
        backend: Executor backend — a registry name
            (:func:`~repro.api.backends.backend_names`) or a ready
            :class:`~repro.api.backends.ExecutorBackend` instance.
            Defaults to the scenario's ``backend`` field, else ``"process"``
            when ``jobs > 1`` and ``"serial"`` otherwise.
        retries: Extra attempts per job after a transient failure (0 = fail
            into quarantine immediately).  Defaults to the scenario's
            ``retries`` field, else 0.  Mutually exclusive with
            ``retry_policy``.
        job_timeout: Per-job wall-clock budget in seconds; a job over it is
            failed as ``timeout`` (transient — the budget is per attempt).
            Defaults to the scenario's ``job_timeout`` field, else none.
        retry_policy: Full :class:`~repro.api.backends.RetryPolicy` override
            (attempt count *and* backoff shape).
        fault_plan: Optional deterministic
            :class:`~repro.api.faults.FaultPlan` injected into every
            attempt — the chaos-testing hook.

    Raises:
        ValueError: for a non-positive ``jobs`` count, a non-positive
            ``max_lanes``, a negative ``retries``, a non-positive
            ``job_timeout``, or ``retries`` combined with ``retry_policy``.
    """

    def __init__(self, scenario: Scenario, store: Optional[ResultsStore] = None,
                 jobs: int = 1, resume: bool = True,
                 progress: Optional[ProgressFn] = None,
                 max_lanes: Optional[int] = None,
                 backend: Union[str, ExecutorBackend, None] = None,
                 retries: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 fault_plan=None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if max_lanes is not None and max_lanes < 1:
            raise ValueError("max_lanes must be positive")
        if retries is not None and retries < 0:
            raise ValueError("retries must be non-negative")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if retries is not None and retry_policy is not None:
            raise ValueError("pass either retries or retry_policy, not both")
        self.scenario = scenario
        self.store = store
        self.jobs = jobs
        self.resume = resume
        self.progress = progress
        self.max_lanes = max_lanes
        self.backend = backend
        self.retries = retries
        self.job_timeout = job_timeout
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    # ------------------------------------------------------------ resolution

    def _resolve_backend(self, todo_size: int) -> ExecutorBackend:
        """The backend instance this run executes on.

        Explicit runner argument beats the scenario's ``backend`` field
        beats the default (``"process"`` for ``jobs > 1``, ``"serial"``
        otherwise).  The historical small-run optimisation is preserved:
        when nobody *named* a backend and at most one job is pending, the
        pool is skipped even with ``jobs > 1``.
        """
        choice = self.backend
        if choice is None:
            choice = self.scenario.backend
        if choice is None:
            serial = self.jobs == 1 or todo_size <= 1
            choice = "serial" if serial else "process"
        if isinstance(choice, ExecutorBackend):
            return choice
        return make_backend(choice)

    def _resolve_policy(self) -> RetryPolicy:
        """The retry policy of this run (runner arg > scenario > default)."""
        if self.retry_policy is not None:
            return self.retry_policy
        retries = self.retries
        if retries is None:
            retries = self.scenario.retries
        return RetryPolicy(retries=retries or 0, seed=self.scenario.seed)

    def _resolve_timeout(self) -> Optional[float]:
        """The per-job wall-clock budget (runner arg > scenario > none)."""
        if self.job_timeout is not None:
            return self.job_timeout
        return self.scenario.job_timeout

    # ---------------------------------------------------------------- running

    def run(self) -> RunReport:
        """Execute the scenario and return the aggregate report.

        Completed records are written to the store as they arrive, and the
        manifest is rewritten at the end of the run.  Job failures never
        abort the run: a transient failure (lost worker, timeout, retryable
        exception) re-runs under the retry policy's backoff, and a job past
        its budget — or one failing permanently — is *quarantined*: appended
        to the store's ``failures.jsonl`` ledger, reported in
        :attr:`RunReport.failures`, and skipped by later resumes until the
        retry budget is raised.

        Raises:
            StoreError: when resuming against a store stamped by a
                *different* scenario — job ids alone cannot distinguish two
                scenarios that differ only in seed, rounds or budgets, so
                silently serving the old records would mislabel them.  Use a
                fresh store directory (or ``resume=False`` to overwrite).
        """
        from .store import StoreError

        self.scenario.validate()
        if self.store is not None:
            # A run killed mid-write leaves *.tmp files behind; sweep them
            # before anything reads the store so they never accumulate.
            swept = self.store.sweep_temp_files()
            if swept:
                _log.warning("removed %d stale temp file(s) from %s",
                             swept, self.store.root)
            stamp = self.store.scenario_stamp()
            if stamp is not None and stamp != self.scenario.fingerprint():
                if self.resume:
                    raise StoreError(
                        f"results store {self.store.root} was produced by a "
                        f"different scenario (stamp {stamp}, this scenario "
                        f"{self.scenario.fingerprint()}); use a fresh store "
                        "directory or resume=False to overwrite")
                # True overwrite: drop the foreign scenario's records so they
                # cannot leak into this run's manifest or aggregations.
                self.store.clear_records()
            self.store.write_scenario_stamp(self.scenario)
        jobs = self.scenario.expand()
        report = RunReport(scenario=self.scenario, total=len(jobs),
                           executed=0, skipped=0,
                           store_path=str(self.store.root)
                           if self.store else None)

        policy = self._resolve_policy()
        ledger: Dict[str, Dict] = {}
        if self.resume and self.store is not None:
            ledger = self.store.failed_job_ids()

        todo: List[Tuple[int, JobSpec]] = []
        done = 0
        for index, job in enumerate(jobs):
            if (self.resume and self.store is not None
                    and self.store.has(job.job_id)):
                try:
                    record = self.store.load(job.job_id)
                except StoreError:
                    # A record truncated by a crash mid-write is as good as
                    # missing: drop it and re-execute the job instead of
                    # killing the whole resumed run.
                    _log.warning("discarding unreadable record %r in %s; "
                                 "the job will be re-executed",
                                 job.job_id, self.store.root)
                    self.store.discard(job.job_id)
                    todo.append((index, job))
                    continue
                report.records[job.job_id] = record
                report.skipped += 1
                done += 1
                # Skipped jobs still count towards progress so callers see
                # the true completion state of a resumed run.
                self._fire_progress(done, len(jobs), record)
            elif (job.job_id in ledger
                  and policy.attempts <= int(
                      ledger[job.job_id].get("attempts", 1))):
                # Known poison under an unchanged (or lowered) retry budget:
                # skip it rather than burn the same attempts again.  Raising
                # retries past the recorded attempt count re-executes it.
                entry = dict(ledger[job.job_id])
                entry["skipped"] = True
                report.failures.append(entry)
                report.quarantined += 1
                _log.warning(
                    "skipping quarantined job %r (failed %s attempt(s) "
                    "previously; raise retries to re-execute)",
                    job.job_id, ledger[job.job_id].get("attempts", 1))
            else:
                todo.append((index, job))

        backend = self._resolve_backend(len(todo))
        job_timeout = self._resolve_timeout()
        scenario_dict = self.scenario.to_dict()
        pending: Dict[int, JobSpec] = dict(todo)
        attempts: Dict[int, int] = {index: 0 for index in pending}

        try:
            first_round = True
            while pending:
                indices = sorted(pending)
                if first_round:
                    chunks = schedule_chunks(
                        [(i, pending[i]) for i in indices], self.jobs)
                else:
                    # Retry rounds are sparse; singleton chunks keep every
                    # worker busy and let per-job backoff delays overlap.
                    chunks = [[i] for i in indices]
                first_round = False
                delays = {i: policy.delay(pending[i].job_id, attempts[i])
                          for i in indices}
                failed: Dict[int, JobOutcome] = {}

                def emit(outcome: JobOutcome,
                         _failed: Dict[int, JobOutcome] = failed) -> None:
                    nonlocal done
                    if outcome.ok:
                        done += 1
                        self._commit(report, pending[outcome.index],
                                     outcome.record, done, len(jobs),
                                     attempt=outcome.attempt)
                    else:
                        _failed[outcome.index] = outcome

                backend.run_round(ExecutionRound(
                    scenario_dict=scenario_dict, jobs=pending, chunks=chunks,
                    attempts=attempts, delays=delays, workers=self.jobs,
                    max_lanes=self.max_lanes, job_timeout=job_timeout,
                    fault_plan=self.fault_plan, emit=emit))

                for index in indices:
                    job = pending[index]
                    if job.job_id in report.records:
                        del pending[index]
                        continue
                    outcome = failed.get(index)
                    if outcome is None:
                        # Backends emit one outcome per job; a hole here is
                        # a backend bug, handled like a lost worker so the
                        # job is never silently dropped.
                        outcome = JobOutcome(
                            index=index, job_id=job.job_id,
                            attempt=attempts[index], kind="crash",
                            error=f"backend {backend.name!r} reported no "
                                  f"outcome for job {job.job_id!r}")
                    attempts[index] += 1
                    classification = classify_failure(outcome.kind,
                                                      outcome.error or "")
                    if (classification == "transient"
                            and attempts[index] < policy.attempts):
                        _log.warning(
                            "job %r failed transiently (%s, attempt %d/%d); "
                            "retrying", job.job_id, outcome.kind,
                            attempts[index], policy.attempts)
                        continue
                    del pending[index]
                    self._quarantine(report, job, outcome,
                                     attempts[index], classification)
        finally:
            backend.close()
            # Whatever happened, everything committed so far is resumable:
            # the manifest reflects the records on disk, and the ledger
            # only keeps entries for jobs that still lack a record.
            if self.store is not None:
                self.store.compact_failures(drop=set(report.records))
                self.store.write_manifest(self.scenario,
                                          executed=report.executed,
                                          skipped=report.skipped)
        # Backends complete jobs in cost or arrival order; consumers (the
        # Fig. 6 tables among them) see expansion order on every backend.
        report.records = {job.job_id: report.records[job.job_id]
                          for job in jobs if job.job_id in report.records}
        return report

    # ------------------------------------------------------------ committing

    def _commit(self, report: RunReport, job: JobSpec, record: Dict,
                done: int, total: int, attempt: int = 0) -> None:
        report.records[job.job_id] = record
        report.executed += 1
        if self.store is not None:
            path = self.store.save(job.job_id, record)
            if (self.fault_plan is not None
                    and self.fault_plan.corrupts(job.job_id, attempt)):
                # The corrupt fault strikes *after* the atomic write — from
                # this process's view the save succeeded, exactly like a
                # machine dying between the write and the next sync.
                from .faults import corrupt_record_file

                corrupt_record_file(path)
        self._fire_progress(done, total, record)

    def _fire_progress(self, done: int, total: int, record: Dict) -> None:
        """Fire the progress hook; a raising hook must not abort the run."""
        if self.progress is None:
            return
        try:
            self.progress(done, total, record)
        except Exception:
            _log.warning("progress hook raised for job %r; continuing",
                         record.get("job_id"), exc_info=True)

    def _quarantine(self, report: RunReport, job: JobSpec,
                    outcome: JobOutcome, attempts: int,
                    classification: str) -> None:
        """Give up on a job: ledger it and record the failure in the report.

        The run itself continues — quarantine is the graceful-degradation
        half of the fault-tolerance layer.  The ledger entry carries enough
        to debug (failure kind, classification, truncated traceback) and to
        decide re-execution on resume (the attempt count).
        """
        entry = {
            "job_id": job.job_id,
            "failure": outcome.kind,
            "classification": classification,
            "attempts": attempts,
            "error": (outcome.error or "")[:_LEDGER_ERROR_CHARS],
            "scenario": self.scenario.fingerprint(),
        }
        _log.error("quarantining job %r after %d attempt(s): %s failure "
                   "(%s)", job.job_id, attempts, outcome.kind,
                   classification)
        if self.store is not None:
            self.store.append_failure(entry)
        report.failures.append(entry)
