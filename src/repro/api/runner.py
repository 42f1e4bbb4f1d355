"""Scenario execution: expand to jobs, run serially or on a process pool.

The :class:`Runner` turns a declarative :class:`~repro.api.scenario.Scenario`
into its flat job list (lock → attack and lock → measure units), skips jobs
whose record already exists in the attached
:class:`~repro.api.store.ResultsStore`, and executes the remainder either
in-process (``jobs=1``) or on a ``ProcessPoolExecutor``.

Base benchmark designs are generated once per process and shared read-only
across jobs (lockers copy before mutating), and so is each locked cell: the
jobs that lock the same design with the same locker, seed and key budget — a
sample's attack and metric jobs — share one
:class:`~repro.locking.result.LockResult` (nothing downstream of the lock
mutates the locked design; attacks relock a copy).

Which jobs a run executes is decided in one place, :meth:`Runner.plan`: the
store-identity check, skipping committed records and known-poison jobs, and
re-running unreadable records.  It reads the store and writes nothing, so
``repro.cli run --dry-run`` reports exactly what :meth:`Runner.run` would
execute with the same arguments.  The order they execute in is the
executor's: the serial backend runs them in expansion order, the process
pool submits each job as its own task, largest estimated cost first.

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
from typing import Callable, Dict, List, Optional, Tuple

from .backends import (ExecutionRound, JobOutcome, ProcessPoolBackend,
                       RetryPolicy, SerialBackend, classify_failure,
                       pool_scope)
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
    mutates a cached object: every locker locks a copy of the design
    (:meth:`~repro.rtlir.design.Design.copy`), and nothing downstream of
    the lock mutates the locked design.  Both caches are bounded LRUs of
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
    shared by every job of the same locked cell (:func:`_lock_cell`).

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
        # Labelled lockers (option variants, key budgets) tag their
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
        attack = make_attack(spec.name, random.Random(job.attack_seed),
                             rounds=spec.rounds,
                             time_budget=spec.time_budget,
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
        metric = make_metric(spec_m.name)
        value = metric(locked.design, rng=random.Random(job.metric_seed),
                       **spec_m.options)
        record["metric"] = spec_m.name
        record["result"] = _json_safe(value)

    record["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    return record


@dataclass
class RunPlan:
    """Which jobs a run executes: the read-only answer of :meth:`Runner.plan`.

    Attributes:
        jobs: The scenario's expanded job list.
        todo: ``(index, job)`` of every job the run executes, in expansion
            order.
        records: ``{job_id: record}`` of committed jobs the run skips, in
            expansion order.
        quarantined: Ledger entries (marked ``skipped``) of known-poison
            jobs the run skips because the retry budget was not raised.
        unreadable: Ids of record files the run discards and re-executes.
        overwrite: True when the store belongs to another scenario and the
            run (``resume=False``) clears its records first.
    """

    jobs: List[JobSpec]
    todo: List[Tuple[int, JobSpec]] = field(default_factory=list)
    records: Dict[str, Dict] = field(default_factory=dict)
    quarantined: List[Dict] = field(default_factory=list)
    unreadable: List[str] = field(default_factory=list)
    overwrite: bool = False


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
            after every completed (or skipped) job.  A raising hook is
            logged and ignored: an observer must not abort the run.
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

    def plan(self) -> RunPlan:
        """Decide which jobs :meth:`run` executes, reading the store only.

        Under ``resume`` a job is skipped when its record is committed, or
        when the failure ledger holds it and the retry budget was not raised
        past its recorded attempts; an unreadable record (truncated by a
        crash mid-write) is as good as missing, so its job re-executes.
        Without ``resume`` every job executes.

        Raises:
            StoreError: when resuming against a store stamped by a
                *different* scenario — job ids alone cannot distinguish two
                scenarios that differ only in seed, rounds or budgets, so
                silently serving the old records would mislabel them.  Use a
                fresh store directory (or ``resume=False`` to overwrite).
        """
        from .store import StoreError

        self.scenario.validate()
        plan = RunPlan(jobs=self.scenario.expand())
        store = self.store
        if store is not None:
            stamp = store.scenario_stamp()
            if stamp is not None and stamp != self.scenario.fingerprint():
                if self.resume:
                    raise StoreError(
                        f"results store {store.root} was produced by a "
                        f"different scenario (stamp {stamp}, this scenario "
                        f"{self.scenario.fingerprint()}); use a fresh store "
                        "directory or resume=False to overwrite")
                plan.overwrite = True
        if not self.resume or store is None:
            plan.todo = list(enumerate(plan.jobs))
            return plan

        attempts = self._resolve_policy().attempts
        ledger = store.failed_job_ids()
        for index, job in enumerate(plan.jobs):
            if store.has(job.job_id):
                try:
                    plan.records[job.job_id] = store.load(job.job_id)
                    continue
                except StoreError:
                    plan.unreadable.append(job.job_id)
            elif (job.job_id in ledger
                  and attempts <= int(ledger[job.job_id].get("attempts", 1))):
                plan.quarantined.append(dict(ledger[job.job_id],
                                             skipped=True))
                continue
            plan.todo.append((index, job))
        return plan

    def run(self) -> RunReport:
        """Execute the scenario and return the aggregate report.

        The jobs executed are those of :meth:`plan`.  Completed records are
        written to the store as they arrive, and the manifest is rewritten
        at the end of the run.  Job failures never abort the run: a
        transient failure (lost worker, timeout, retryable exception)
        re-runs under the retry policy's backoff, and a job past its budget
        — or one failing permanently — is *quarantined*: appended to the
        store's ``failures.jsonl`` ledger, reported in
        :attr:`RunReport.failures`, and skipped by later resumes until the
        retry budget is raised.

        On the pool, every round of the run shares one set of warm
        workers (:func:`~repro.api.backends.pool_scope`); inside an outer
        scope, such as a scenario-server thread's, the run uses that
        scope's pool.

        Raises:
            StoreError: as :meth:`plan` does.
        """
        plan = self.plan()
        jobs = plan.jobs
        store = self.store
        if store is not None:
            # A run killed mid-write leaves *.tmp files behind (no plan ever
            # reads them); sweep them so they never accumulate.
            swept = store.sweep_temp_files()
            if swept:
                _log.warning("removed %d stale temp file(s) from %s",
                             swept, store.root)
            if plan.overwrite:
                # True overwrite: drop the foreign scenario's records so they
                # cannot leak into this run's manifest or aggregations.
                store.clear_records()
            store.write_scenario_stamp(self.scenario)
            for job_id in plan.unreadable:
                _log.warning("discarding unreadable record %r in %s; "
                             "the job will be re-executed",
                             job_id, store.root)
                store.discard(job_id)
        report = RunReport(scenario=self.scenario, total=len(jobs),
                           executed=0, skipped=len(plan.records),
                           records=dict(plan.records),
                           store_path=str(store.root) if store else None,
                           failures=list(plan.quarantined),
                           quarantined=len(plan.quarantined))
        for entry in plan.quarantined:
            _log.warning(
                "skipping quarantined job %r (failed %s attempt(s) "
                "previously; raise retries to re-execute)",
                entry["job_id"], entry.get("attempts", 1))
        # Skipped jobs still count towards progress so callers see the true
        # completion state of a resumed run.
        done = 0
        for record in plan.records.values():
            done += 1
            self._fire_progress(done, len(jobs), record)

        policy = self._resolve_policy()
        executor = SerialBackend() if self.jobs == 1 else ProcessPoolBackend()
        job_timeout = self._resolve_timeout()
        pending: Dict[int, JobSpec] = dict(plan.todo)
        attempts: Dict[int, int] = {index: 0 for index in pending}

        try:
            # One pool for every round of the run: a retry round reuses the
            # warm workers unless an earlier round broke them.
            with pool_scope():
                while pending:
                    indices = sorted(pending)
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
                        jobs=pending, attempts=attempts, delays=delays,
                        workers=self.jobs, job_timeout=job_timeout,
                        fault_plan=self.fault_plan, emit=emit))

                    for index in indices:
                        job = pending[index]
                        if job.job_id in report.records:
                            del pending[index]
                            continue
                        outcome = failed[index]
                        attempts[index] += 1
                        classification = classify_failure(outcome)
                        if (classification == "transient"
                                and attempts[index] < policy.attempts):
                            _log.warning(
                                "job %r failed transiently (%s, attempt "
                                "%d/%d); retrying", job.job_id, outcome.kind,
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
        # The pool completes jobs in its own dispatch order; consumers (the
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
