"""The two executors of scenario jobs and the fault-tolerance primitives.

The :class:`~repro.api.runner.Runner` picks the executor from its ``jobs``
count alone — ``jobs=1`` runs in-process, ``jobs > 1`` runs on a worker
pool — and hands it one *round* of jobs at a time.  The executor decides
the order the round's jobs run in and reports every job's fate through a
uniform :class:`JobOutcome`; the runner owns policy: which jobs run, retry
rounds, backoff, quarantine, the failure ledger.

* :class:`SerialBackend` (``jobs=1``) — runs jobs in the calling process,
  in expansion order.  Timeouts are *post-hoc* (a job that finishes over
  budget is discarded and failed as ``timeout``) because an in-process job
  cannot be pre-empted.
* :class:`ProcessPoolBackend` (``jobs > 1``) — a ``ProcessPoolExecutor``
  that dispatches benchmark-affine chunks, largest estimated cost first
  (:func:`_round_chunks`), with per-job result streaming and
  heartbeat-based lost-worker detection: workers report ``start``/``done``
  messages through a manager queue, the parent commits records as they
  arrive, and a job whose heartbeat exceeds ``job_timeout`` gets its worker
  killed — the timeout is *pre-emptive*, so a job that never returns still
  fails as ``timeout``.  The chunk's other results are already home, and
  only genuinely unfinished jobs fail.  A crashed worker
  (``BrokenProcessPool``) likewise fails only the jobs without a ``done``
  message.

Both executors run each attempt through the same body
(:func:`_run_attempt`): backoff sleep, ``execute_job``, and an ``ok`` or
``error`` outcome.

Fault-tolerance primitives shared with the runner:

* :class:`RetryPolicy` — bounded attempts with seeded-deterministic
  exponential backoff (the delay of ``(job, attempt)`` is a pure function
  of the policy seed, so retry schedules reproduce).
* :func:`classify_failure` — transient-vs-permanent classification of a
  failed attempt.  Crashes and timeouts are transient by definition;
  exceptions are classified by name against :data:`TRANSIENT_ERROR_NAMES`
  (extensible via :func:`register_transient_error`), because tracebacks
  cross process boundaries as text.
* :class:`TransientJobError` — raise this from a component to mark a
  failure as retryable regardless of the name list.
"""

from __future__ import annotations

import re
import time
import traceback
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from queue import Empty
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .scenario import JobSpec

#: Fate of one job attempt: completed, raised, lost with its worker, or hung.
OUTCOME_KINDS = ("ok", "error", "crash", "timeout")

#: Classifications returned by :func:`classify_failure`.
CLASSIFICATIONS = ("transient", "permanent")


class TransientJobError(RuntimeError):
    """A job failure that is worth retrying (I/O blips, contention, ...).

    Components executed by the runner may raise this (or a subclass) to opt
    a failure into the retry budget explicitly; any exception whose name is
    in :data:`TRANSIENT_ERROR_NAMES` classifies the same way.
    """


#: Exception *names* whose failures classify as transient.  Names, not
#: types, because worker failures arrive as formatted tracebacks; extend
#: with :func:`register_transient_error`.
TRANSIENT_ERROR_NAMES = {
    "TransientJobError",
    "InjectedTransientError",
    "InjectedCrashError",
    "TimeoutError",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionRefusedError",
    "BrokenPipeError",
    "EOFError",
    "OSError",
    "IOError",
    "BrokenProcessPool",
    "BrokenExecutor",
}

_EXCEPTION_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)(?::|$)")

#: Suffixes that mark a bare identifier as an exception class name.
_EXCEPTION_SUFFIXES = ("Error", "Exception", "Timeout", "Interrupt")


def register_transient_error(name: str) -> str:
    """Add an exception name to the transient classification set.

    Returns the name, so it can be used as a tiny decorator-style helper::

        register_transient_error("FlakyOracleError")
    """
    TRANSIENT_ERROR_NAMES.add(name)
    return name


def exception_name_from_traceback(error: str) -> str:
    """Extract the raising exception's bare class name from traceback text.

    Scans bottom-up for the first ``SomeError: ...`` line and strips any
    module qualification.  An identifier counts as an exception name when
    it carries a conventional suffix (``...Error``/``...Exception``/...) or
    is module-qualified — ``traceback`` prints non-builtin exceptions fully
    qualified (``concurrent.futures.process.BrokenProcessPool``), which is
    how suffix-less names are recognised.  Returns ``""`` when nothing
    matches (e.g. a hand-written error message).
    """
    for line in reversed(error.strip().splitlines()):
        found = _EXCEPTION_LINE.match(line.strip())
        if not found:
            continue
        name = found.group(1)
        if name.endswith(_EXCEPTION_SUFFIXES) or "." in name:
            return name.rsplit(".", 1)[-1]
    return ""


def classify_failure(kind: str, error: str = "") -> str:
    """Classify one failed attempt as ``"transient"`` or ``"permanent"``.

    Lost workers (``crash``) and hung jobs (``timeout``) are always
    transient — the next attempt runs on a fresh worker.  ``error``
    failures are classified by the raising exception's name against
    :data:`TRANSIENT_ERROR_NAMES`; anything unrecognised is permanent, so
    a poison job burns one attempt, not the whole retry budget.
    """
    if kind in ("crash", "timeout"):
        return "transient"
    name = exception_name_from_traceback(error)
    return "transient" if name in TRANSIENT_ERROR_NAMES else "permanent"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded-deterministic exponential backoff.

    Attributes:
        retries: Extra attempts after the first (0 = fail fast).
        backoff_base: Delay before the first retry, in seconds; doubles per
            further attempt.
        backoff_cap: Upper bound on any single delay.
        seed: Seed of the deterministic jitter — the delay of a given
            ``(job_id, attempt)`` is identical on every machine and run.
    """

    retries: int = 0
    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, "
                             f"got {self.retries}")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")

    @property
    def attempts(self) -> int:
        """Total attempts a job may consume (``retries + 1``)."""
        return self.retries + 1

    def delay(self, job_id: str, attempt: int) -> float:
        """Backoff before attempt number ``attempt`` (1-based retries).

        Exponential in the attempt number, capped at ``backoff_cap``, with
        deterministic half-width jitter: the delay is drawn from
        ``[base/2, base]`` by a generator seeded from ``(seed, job_id,
        attempt)``, so concurrent retries of different jobs de-synchronise
        without losing reproducibility.
        """
        if attempt < 1 or self.backoff_base == 0:
            return 0.0
        base = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        token = f"{self.seed}/{job_id}/{attempt}"
        rng = Random(zlib.crc32(token.encode()) & 0x7FFFFFFF)
        return base * (0.5 + 0.5 * rng.random())


@dataclass(frozen=True)
class JobOutcome:
    """Fate of one job attempt, as reported by an executor.

    Attributes:
        index: Index of the job in the expanded scenario job list.
        job_id: The job's stable identifier.
        attempt: Zero-based attempt number this outcome belongs to.
        kind: One of :data:`OUTCOME_KINDS`.
        record: The completed record (``kind == "ok"`` only).
        error: Traceback or diagnostic text (failures only).
    """

    index: int
    job_id: str
    attempt: int
    kind: str = "ok"
    record: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True for a completed attempt."""
        return self.kind == "ok"


@dataclass
class ExecutionRound:
    """Everything an executor needs to execute one round of jobs.

    One round is one pass over a set of pending jobs — the first round runs
    the whole todo list, later rounds re-run the jobs whose previous
    attempt failed transiently.  The runner decides *which* jobs run; the
    executor decides in what order.  Executors call :attr:`emit` exactly
    once per job as its fate is known (successes stream out immediately, so
    the runner commits them even if the round later loses a worker).

    Attributes:
        jobs: ``{index: JobSpec}`` of the pending jobs, keyed by their index
            in the expanded scenario job list.
        attempts: ``{index: prior failure count}`` — the attempt number of
            this round's execution per job.
        delays: ``{index: seconds}`` retry backoff, slept by the executor
            before the job starts (inside the worker on the pool, so delays
            of different jobs overlap).
        workers: Worker processes available to the round.
        job_timeout: Per-job wall-clock budget in seconds, or ``None``.
        fault_plan: Optional deterministic fault-injection plan.
        emit: Outcome callback; must be called once per pending job.
    """

    jobs: Mapping[int, JobSpec]
    attempts: Mapping[int, int]
    delays: Mapping[int, float]
    workers: int
    job_timeout: Optional[float]
    fault_plan: Optional[object]
    emit: Callable[[JobOutcome], None]


def _run_attempt(index: int, job: JobSpec, attempt: int, delay: float,
                 fault_plan, in_worker: bool,
                 on_start: Callable[[float], None]) -> JobOutcome:
    """Run one attempt of a job: backoff, then the job body.

    ``on_start`` receives the monotonic start time once the backoff is
    over, just before the body runs.  A raising body becomes an ``error``
    outcome carrying its traceback; a returning one an ``ok`` outcome.
    """
    from .runner import execute_job

    if delay > 0:
        time.sleep(delay)
    on_start(time.monotonic())
    try:
        record = execute_job(job, fault_plan=fault_plan, attempt=attempt,
                             in_worker=in_worker)
    except Exception:
        return JobOutcome(index=index, job_id=job.job_id, attempt=attempt,
                          kind="error", error=traceback.format_exc())
    return JobOutcome(index=index, job_id=job.job_id, attempt=attempt,
                      record=record)


class SerialBackend:
    """Run every job in the calling process, one at a time (``jobs=1``).

    The reference executor: no pickling, no worker processes.  Jobs run in
    index order, which is expansion order, so a sample's attack and metric
    jobs run back to back and share one locked cell.
    ``job_timeout`` is enforced *post-hoc* — an in-process job cannot be
    pre-empted, so a job that completes over budget is discarded and failed
    as ``timeout`` (timeout semantics are an SLA, not best-effort: a job
    that only ever finishes late ends up quarantined, same as on the pool).
    """

    def run_round(self, round_: ExecutionRound) -> None:
        """Execute the round's jobs sequentially in index order."""
        for index in sorted(round_.jobs):
            started: List[float] = []
            outcome = _run_attempt(
                index, round_.jobs[index], round_.attempts.get(index, 0),
                round_.delays.get(index, 0.0), round_.fault_plan, False,
                started.append)
            elapsed = time.monotonic() - started[0]
            if (outcome.ok and round_.job_timeout is not None
                    and elapsed > round_.job_timeout):
                outcome = JobOutcome(
                    index=index, job_id=outcome.job_id,
                    attempt=outcome.attempt, kind="timeout",
                    error=f"job {outcome.job_id!r} took {elapsed:.3f}s, "
                          f"over the {round_.job_timeout}s job_timeout "
                          "(in-process runs enforce timeouts post-hoc)")
            round_.emit(outcome)


def _job_cost(job: JobSpec) -> float:
    """Relative cost estimate used for largest-first pool scheduling.

    The model is *design gate count × work volume*: the scaled benchmark's
    operation count times, for attack jobs, ``rounds × time_budget``
    (relocking dominates, the auto-ML search scales with its budget) plus
    the functional-validation vectors, and for metric jobs the metric's
    ``vectors`` option.  Units are arbitrary — only the *ordering* of
    estimates matters to the scheduler.
    """
    from ..bench import get_profile

    try:
        gates = get_profile(job.benchmark).scaled(job.scale) \
            .total_operations
    except KeyError:
        gates = 1
    gates = max(1, gates)
    if job.kind == "attack":
        assert job.attack is not None
        return float(gates * (job.attack.rounds * job.attack.time_budget
                              + job.attack.functional_vectors))
    assert job.metric is not None
    vectors = job.metric.options.get("vectors", 32)
    try:
        volume = max(1.0, float(vectors))
    except (TypeError, ValueError):
        volume = 32.0
    return float(gates * volume)


def _cost_chunks(todo: Sequence[Tuple[int, JobSpec]],
                     workers: int) -> List[List[int]]:
    """Group pending jobs into cost-ordered dispatch chunks (largest first).

    Scheduling balances two goals:

    * **cache affinity** — jobs group by benchmark so one worker's
      per-process base-design and plan caches serve all samples of the
      designs it attacks; each group splits into at most ``workers`` chunks
      so small scenarios still use every worker;
    * **pool utilisation** — jobs within a group sort by
      :func:`_job_cost` (largest first) and the chunks are dispatched
      in descending total-cost order, the classic longest-processing-time
      heuristic: the expensive work starts immediately and the cheap chunks
      backfill the pool's tail instead of straggling at the end.

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
        costs[index] = _job_cost(job)
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


def _round_chunks(round_: ExecutionRound) -> List[List[int]]:
    """The pool's dispatch chunks for one round.

    A round whose jobs have no prior attempt (the first round) gets the
    cost-ordered chunks of :func:`_cost_chunks`.  Retry rounds are
    sparse; singleton chunks keep every worker busy and let per-job backoff
    delays overlap.
    """
    indices = sorted(round_.jobs)
    if any(round_.attempts.get(index, 0) for index in indices):
        return [[index] for index in indices]
    return _cost_chunks([(index, round_.jobs[index]) for index in indices],
                            round_.workers)


def _pool_worker(chunk: Sequence[Tuple[int, JobSpec]],
                 attempts: Dict[int, int], delays: Dict[int, float],
                 fault_plan, channel) -> List[int]:
    """Worker entry point: execute a chunk, streaming per-job messages.

    Each job sends a ``("start", index, monotonic)`` heartbeat before its
    body and a ``("done", outcome)`` message after it, so the parent
    commits results as they happen and can tell a hung job (start without
    done, heartbeat overdue) from a lost one (no messages at all).
    """
    for index, job in chunk:
        outcome = _run_attempt(
            index, job, attempts.get(index, 0),
            delays.get(index, 0.0), fault_plan, True,
            lambda at, index=index: channel.put(("start", index, at)))
        channel.put(("done", outcome))
    return [index for index, _ in chunk]


class ProcessPoolBackend:
    """Run jobs on a ``ProcessPoolExecutor`` with lost-worker detection.

    The executor of every ``jobs > 1`` run.  Results stream back per job
    through a manager queue rather than per chunk through the future, so a
    worker crash (or kill) loses only the jobs that had not finished —
    everything already reported is committed by the runner the moment it
    arrives.  With a ``job_timeout``, the parent watches each in-flight
    job's ``start`` heartbeat; once a job is overdue past a grace margin the
    pool's workers are killed (there is no cooperative way to stop a hung
    child), the hung job fails as ``timeout`` and the other unfinished jobs
    as ``crash`` — both transient, so a retry budget re-runs them on a
    fresh pool.

    Interrupts (SIGTERM/SIGINT arriving as ``KeyboardInterrupt`` /
    ``SystemExit``) exit *gracefully*: already-reported results are drained
    and committed, in-flight workers are killed rather than awaited, and
    the exception propagates so the runner's ``finally`` block writes the
    manifest — a stopped run leaves a cleanly resumable store.
    """

    #: Drain/heartbeat polling period of the parent loop, in seconds.
    POLL_SECONDS = 0.2

    def run_round(self, round_: ExecutionRound) -> None:
        """Execute one round on a fresh pool (see class docstring)."""
        import multiprocessing

        with multiprocessing.Manager() as manager:
            self._run_pool(round_, manager.Queue())

    def _run_pool(self, round_: ExecutionRound, channel) -> None:
        done: set = set()
        started: Dict[int, float] = {}
        hung: set = set()
        chunk_errors: Dict[int, str] = {}
        chunks = _round_chunks(round_)
        pool = ProcessPoolExecutor(max_workers=round_.workers)
        try:
            pending = {
                pool.submit(_pool_worker,
                            [(i, round_.jobs[i]) for i in chunk],
                            {i: round_.attempts.get(i, 0) for i in chunk},
                            {i: round_.delays.get(i, 0.0) for i in chunk},
                            round_.fault_plan, channel): chunk
                for chunk in chunks}
            while pending:
                finished, _ = wait(pending, timeout=self.POLL_SECONDS,
                                   return_when=FIRST_COMPLETED)
                self._drain(channel, round_, done, started)
                for future in finished:
                    chunk = pending.pop(future)
                    try:
                        future.result()
                    except Exception:
                        # BrokenProcessPool and friends: every job of the
                        # chunk without a "done" message is lost.
                        error = traceback.format_exc()
                        for index in chunk:
                            chunk_errors.setdefault(index, error)
                if round_.job_timeout is not None and pending:
                    self._kill_overdue(pool, round_, done, started, hung)
        except BaseException:
            # SIGTERM/SIGINT land here as KeyboardInterrupt/SystemExit
            # (``cli run`` and ``cli serve`` convert SIGTERM).  Graceful
            # exit means: commit everything the workers already reported,
            # then *kill* the in-flight workers — a default shutdown would
            # block on them (possibly forever, if one is hung), and their
            # half-finished jobs re-execute on resume anyway.  The runner's
            # ``finally`` block then writes the manifest, so the store the
            # stopped process leaves behind is cleanly resumable.
            self._drain(channel, round_, done, started)
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        # Messages may still be in flight when the pool breaks; one final
        # drain after shutdown collects them.
        self._drain(channel, round_, done, started)
        for chunk in chunks:
            for index in chunk:
                if index in done:
                    continue
                job_id = round_.jobs[index].job_id
                attempt = round_.attempts.get(index, 0)
                if index in hung:
                    round_.emit(JobOutcome(
                        index=index, job_id=job_id, attempt=attempt,
                        kind="timeout",
                        error=f"no heartbeat progress on job {job_id!r} "
                              f"within job_timeout={round_.job_timeout}s; "
                              "its worker was killed"))
                else:
                    round_.emit(JobOutcome(
                        index=index, job_id=job_id, attempt=attempt,
                        kind="crash",
                        error=chunk_errors.get(
                            index, f"worker lost before finishing job "
                                   f"{job_id!r}")))

    def _drain(self, channel, round_: ExecutionRound, done: set,
               started: Dict[int, float]) -> None:
        """Consume queued worker messages, emitting finished outcomes."""
        while True:
            try:
                message = channel.get_nowait()
            except Empty:
                return
            if message[0] == "start":
                started[message[1]] = message[2]
                continue
            outcome = message[1]
            if outcome.index not in done:
                done.add(outcome.index)
                round_.emit(outcome)

    def _kill_overdue(self, pool: ProcessPoolExecutor,
                      round_: ExecutionRound, done: set,
                      started: Dict[int, float], hung: set) -> None:
        """Kill the pool when any in-flight job's heartbeat is overdue.

        The grace margin over ``job_timeout`` absorbs scheduling noise so a
        job finishing right at the budget is not raced by the killer; a
        genuinely hung worker cannot be stopped any other way.
        """
        assert round_.job_timeout is not None
        grace = max(0.5, 0.25 * round_.job_timeout)
        now = time.monotonic()
        overdue = [index for index, at in started.items()
                   if index not in done and index not in hung
                   and now - at > round_.job_timeout + grace]
        if not overdue:
            return
        hung.update(overdue)
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
