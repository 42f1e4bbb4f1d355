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
process and shared read-only across jobs (lockers copy before mutating), and
so is each locked cell: the jobs that lock the same design with the same
locker, seed and key budget — a sample's attack and metric jobs — share one
:class:`~repro.locking.result.LockResult` (nothing downstream of the lock
mutates the locked design; attacks relock a copy).

Parallel dispatch is additionally *cost-aware*: :func:`schedule_chunks`
estimates every pending job's cost (design gate count × rounds × budget, see
:meth:`JobSpec.estimated_cost <repro.api.scenario.JobSpec.estimated_cost>`)
and submits benchmark-affine chunks largest-first, so the expensive cells of
a scenario matrix start immediately and the cheap ones backfill the pool's
tail.  Each record carries its measured ``elapsed_seconds`` and the store
manifest pairs it with the estimate, so the cost model can be validated from
any finished run (``repro.cli report`` prints the comparison).

Execution follows one rule: ``jobs=1`` runs on the in-process
:class:`~repro.api.backends.SerialBackend` and ``jobs > 1`` on the
:class:`~repro.api.backends.ProcessPoolBackend`, however few jobs are
pending.  Both sit under a *fault-tolerance layer*: failed attempts are
classified transient-vs-permanent
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
with or without retries, in-process or on the pool.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .backends import (ExecutionRound, JobOutcome, ProcessPoolBackend,
                       RetryPolicy, SerialBackend, classify_failure)
from .registry import locker_factory, make_attack, make_locker, make_metric
from .scenario import JobSpec, Scenario
from .store import ResultsStore

#: Signature of the runner progress callback: ``progress(done, total, record)``.
ProgressFn = Callable[[int, int, Dict], None]

_log = logging.getLogger(__name__)

#: Entries kept per process by each of the base-design and locked-cell
#: caches (jobs share them read-only).
_CACHE_SIZE = 8

#: Characters of a failure traceback kept in a ledger entry.
_LEDGER_ERROR_CHARS = 4000


#: Guards both caches: in-process runs of ``serve --workers N`` share them
#: across threads.
_cache_lock = threading.Lock()
_design_cache: "OrderedDict[Tuple, object]" = OrderedDict()
_lock_cache: "OrderedDict[Tuple, object]" = OrderedDict()


def _cached(cache: "OrderedDict[Tuple, object]", key: Tuple,
            build: Callable[[], object]) -> object:
    """Return ``cache[key]``, building and inserting it on a miss (LRU).

    ``build`` runs outside the lock, so a slow build never blocks other
    threads' hits; when two threads miss the same key at once, both build
    and the first value stored wins, so every caller sees one object.
    """
    with _cache_lock:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            return value
    value = build()
    with _cache_lock:
        value = cache.setdefault(key, value)
        cache.move_to_end(key)
        while len(cache) > _CACHE_SIZE:
            cache.popitem(last=False)
    return value


def _load_base_design(benchmark: str, scale: float, seed: int):
    """Load a benchmark once per process and share it across jobs.

    This is the first of the runner's two per-process caches: every job of
    a benchmark shares one generated base design, and :func:`_lock_cell`
    then shares each locked cell of it.  Sharing is safe because nothing
    mutates a cached object: lockers deep-copy the design before mutating
    (``in_place`` defaults to False), and nothing downstream of the lock
    mutates the locked design.  Both caches are bounded LRUs of
    ``_CACHE_SIZE`` entries under one lock.
    """
    from ..bench import load_benchmark

    return _cached(_design_cache, (benchmark, scale, seed),
                   lambda: load_benchmark(benchmark, scale=scale, seed=seed))


def _lock_cell(job: JobSpec, design, budget: int):
    """Lock a job's cell once per process and share the ``LockResult``.

    The key is the lock's full identity: the base design (benchmark, scale,
    seed), the locker (its registered factory and canonical options), the
    locking seed and the key budget.  The attack and metric jobs of one
    sample share all of it, so they lock once between them.
    """
    spec = job.locker
    key = (job.benchmark, job.scale, job.seed,
           locker_factory(spec.algorithm),
           json.dumps(spec.options, sort_keys=True), job.locker_seed, budget)

    def lock():
        locker = make_locker(spec.algorithm, random.Random(job.locker_seed),
                             **spec.options)
        return locker.lock(design, key_budget=budget)

    return _cached(_lock_cache, key, lock)


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


def execute_job(job: JobSpec, fault_plan=None, attempt: int = 0,
                in_worker: bool = False) -> Dict:
    """Execute one job and return its (JSON-ready) record.

    The lock step seeds its locker with :attr:`JobSpec.locker_seed` and is
    shared by every job of the same locked cell (:func:`_lock_cell`); the
    locked sample's evaluation plan — compiled once through the full
    ``repro.sim.plan`` pass pipeline, sweep-value-numbering tags
    included — is warmed into the process-wide cache before any
    simulation-backed step, so every key sweep and metric inside the job
    starts from a cache hit.

    Args:
        job: The job to execute.
        fault_plan: Optional :class:`~repro.api.faults.FaultPlan`; its
            pre-execution faults (crash/hang/transient/slow) are injected
            here, before the job body, so both executors exercise the same
            failure surface.
        attempt: Zero-based attempt number (feeds fault-plan decisions).
        in_worker: True inside a pool worker process, where an injected
            crash may genuinely kill the process.
    """
    from ..sim import warm_plan_cache

    if fault_plan is not None:
        fault_plan.apply(job.job_id, attempt, in_worker=in_worker)
    started = time.perf_counter()
    design = _load_base_design(job.benchmark, job.scale, job.seed)
    num_operations = design.num_operations()
    budget = key_budget_for(job, num_operations)

    locked = _lock_cell(job, design, budget)

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
            whatever the completion order.
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
        jobs: Worker processes; 1 (the default) runs in-process, any
            larger count runs on a process pool of that size — even when
            a single job is pending, so ``job_timeout`` is always
            pre-emptive on the pool.  With ``jobs > 1``, third-party
            components must be registered at *import time* of a module
            the workers also import (built-ins always are): under a
            spawn/forkserver start method a worker that cannot resolve a
            component name fails that job group with the registry's
            unknown-component error.
        resume: Skip jobs whose store record already exists (on by default).
        progress: Optional ``progress(done, total, record)`` callback fired
            after every completed (or skipped) job — the same liveness-hook
            convention as :meth:`SnapShotAttack.attack_many`.  A raising
            hook is logged and ignored: an observer must not abort the run.
        retries: Extra attempts per job after a transient failure (0 = fail
            into quarantine immediately).  Defaults to the scenario's
            ``retries`` field, else 0.
        job_timeout: Per-job wall-clock budget in seconds; a job over it is
            failed as ``timeout`` (transient — the budget is per attempt).
            In-process runs check it post-hoc, after the job returns; the
            pool kills an overdue worker.  Defaults to the scenario's
            ``job_timeout`` field, else none.
        fault_plan: Optional deterministic
            :class:`~repro.api.faults.FaultPlan` injected into every
            attempt — the chaos-testing hook.

    Raises:
        ValueError: for a non-positive ``jobs`` count, a negative
            ``retries`` or a non-positive ``job_timeout``.
    """

    def __init__(self, scenario: Scenario, store: Optional[ResultsStore] = None,
                 jobs: int = 1, resume: bool = True,
                 progress: Optional[ProgressFn] = None,
                 retries: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 fault_plan=None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if retries is not None and retries < 0:
            raise ValueError("retries must be non-negative")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        self.scenario = scenario
        self.store = store
        self.jobs = jobs
        self.resume = resume
        self.progress = progress
        self.retries = retries
        self.job_timeout = job_timeout
        self.fault_plan = fault_plan

    # ------------------------------------------------------------ resolution

    def _resolve_policy(self) -> RetryPolicy:
        """The retry policy of this run (runner arg > scenario > default)."""
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

        executor = SerialBackend() if self.jobs == 1 else ProcessPoolBackend()
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

                executor.run_round(ExecutionRound(
                    scenario_dict=scenario_dict, jobs=pending, chunks=chunks,
                    attempts=attempts, delays=delays, workers=self.jobs,
                    job_timeout=job_timeout, fault_plan=self.fault_plan,
                    emit=emit))

                for index in indices:
                    job = pending[index]
                    if job.job_id in report.records:
                        del pending[index]
                        continue
                    outcome = failed[index]
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
            # Whatever happened, everything committed so far is resumable:
            # the manifest reflects the records on disk, and the ledger
            # only keeps entries for jobs that still lack a record.
            if self.store is not None:
                self.store.compact_failures(drop=set(report.records))
                self.store.write_manifest(self.scenario,
                                          executed=report.executed,
                                          skipped=report.skipped)
        # The pool completes jobs in cost or arrival order; consumers (the
        # Fig. 6 tables among them) see expansion order either way.
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
