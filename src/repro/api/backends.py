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
  with one dispatch rule for every round: each pending job is its own
  task, submitted largest estimated cost first (:func:`_job_cost`, ties on
  index).  The executor hands each task to the next free worker, so this is
  longest-processing-time list scheduling.  Workers report ``start``/``done``
  messages through a manager queue, the parent commits records as they
  arrive, and a job whose heartbeat exceeds ``job_timeout`` gets its worker
  killed — the timeout is *pre-emptive*, so a job that never returns still
  fails as ``timeout``.  Results already reported are home, and only
  genuinely unfinished jobs fail.  A crashed worker (``BrokenProcessPool``)
  likewise fails only the jobs without a ``done`` message.  Workers run
  with SIGTERM's default action, so a killed worker dies instead of raising
  an interrupt the parent would mistake for its own.

The pool outlives a round inside a :func:`pool_scope`: the runner opens
one around all rounds of a run, and each scenario-server thread one for its
whole life, so consecutive rounds, runs and scenarios reuse one set of warm
workers (and the caches in each of them).  The pool is built at the first
round that needs it and rebuilt after a round that lost a worker, killed a
hung job or was interrupted, when the worker count changes, or when a
worker or the manager died while idle.  Every message carries its round's
token, and the parent drops the messages of any other round.  Outside a
scope a pool lives for one round.

Both executors run each attempt through the same body
(:func:`_run_attempt`): backoff sleep, ``execute_job``, and an ``ok`` or
``error`` outcome.

Fault-tolerance primitives shared with the runner:

* :class:`RetryPolicy` — bounded attempts with seeded-deterministic
  exponential backoff (the delay of ``(job, attempt)`` is a pure function
  of the policy seed, so retry schedules reproduce).
* :func:`classify_failure` — transient-vs-permanent classification of a
  failed attempt.  Crashes and timeouts are transient by definition; an
  exception is classified where :func:`_run_attempt` catches it, by type:
  a :class:`TransientJobError` (or a subclass) or a class named in
  :data:`TRANSIENT_ERROR_NAMES` is transient.  The verdict travels home
  in the :class:`JobOutcome`, next to the traceback text.
* :class:`TransientJobError` — raise this (or a subclass) from a
  component to mark a failure as retryable regardless of the name list.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from queue import Empty
from random import Random
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from .scenario import JobSpec

#: Fate of one job attempt: completed, raised, lost with its worker, or hung.
OUTCOME_KINDS = ("ok", "error", "crash", "timeout")

#: Classifications returned by :func:`classify_failure`.
CLASSIFICATIONS = ("transient", "permanent")


class TransientJobError(RuntimeError):
    """A job failure that is worth retrying (I/O blips, contention, ...).

    Components executed by the runner may raise this (or a subclass) to opt
    a failure into the retry budget explicitly; an exception whose class
    name is in :data:`TRANSIENT_ERROR_NAMES` classifies the same way.
    """


#: Names of the exception classes whose failures classify as transient,
#: matched against the raised class's own name (not its bases, so an
#: ``OSError`` subclass such as ``FileNotFoundError`` stays permanent).
TRANSIENT_ERROR_NAMES = {
    "InjectedTransientError",
    "InjectedCrashError",
    "TimeoutError",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionRefusedError",
    "BrokenPipeError",
    "EOFError",
    "OSError",
    "BrokenProcessPool",
    "BrokenExecutor",
}


def classify_failure(outcome: JobOutcome) -> str:
    """Classify one failed attempt as ``"transient"`` or ``"permanent"``.

    Lost workers (``crash``) and hung jobs (``timeout``) are always
    transient — the next attempt runs on a fresh worker.  An ``error`` is
    transient when :func:`_run_attempt` found its exception transient
    (``outcome.transient``); anything else is permanent, so a poison job
    burns one attempt, not the whole retry budget.
    """
    if outcome.kind in ("crash", "timeout") or outcome.transient:
        return "transient"
    return "permanent"


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
        transient: Whether the exception of an ``error`` outcome is
            transient (see :func:`classify_failure`).
    """

    index: int
    job_id: str
    attempt: int
    kind: str = "ok"
    record: Optional[Dict] = None
    error: Optional[str] = None
    transient: bool = False

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
    outcome carrying its traceback and whether the exception is transient:
    a :class:`TransientJobError` (or a subclass), or a class named in
    :data:`TRANSIENT_ERROR_NAMES`.  A returning body becomes an ``ok``
    outcome.
    """
    from .runner import execute_job

    if delay > 0:
        time.sleep(delay)
    on_start(time.monotonic())
    try:
        record = execute_job(job, fault_plan=fault_plan, attempt=attempt,
                             in_worker=in_worker)
    except Exception as exc:
        transient = (isinstance(exc, TransientJobError)
                     or type(exc).__name__ in TRANSIENT_ERROR_NAMES)
        return JobOutcome(index=index, job_id=job.job_id, attempt=attempt,
                          kind="error", error=traceback.format_exc(),
                          transient=transient)
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


#: A pool worker's end of the parent's message queue (set by
#: :func:`_init_worker`; ``None`` outside pool workers).
_channel = None


def _init_worker(channel) -> None:
    """Pool-worker initializer: default SIGTERM, and the message channel.

    Workers fork from a parent that may route SIGTERM into
    ``KeyboardInterrupt`` (``cli run``, ``cli serve``).  A worker that
    inherited that handler would turn the pool's own kill of a hung job
    into an exception shipped home through its future, which the parent
    reads as a user interrupt.  With the default action the killed worker
    simply dies, and the pool reports it as lost.

    The channel is handed over once per worker rather than once per task:
    every unpickled manager proxy opens its own connection to the manager.
    """
    global _channel
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _channel = channel


def _pool_worker(index: int, job: JobSpec, attempt: int, delay: float,
                 fault_plan, token: int) -> None:
    """Worker entry point: execute one job, streaming its messages.

    The job sends a ``("start", token, index, monotonic)`` heartbeat before
    its body and a ``("done", token, outcome)`` message after it, so the
    parent commits results as they happen and can tell a hung job (start
    without done, heartbeat overdue) from a lost one (no messages at all).
    ``token`` names the round: job indices restart at 0 in every scenario,
    so the parent drops every message of another round.
    """
    outcome = _run_attempt(
        index, job, attempt, delay, fault_plan, True,
        lambda at: _channel.put(("start", token, index, at)))
    _channel.put(("done", token, outcome))


class WarmPool:
    """Pool workers and their message queue, kept open between rounds.

    Nothing starts until a round needs a pool (:meth:`acquire`), so opening
    a :func:`pool_scope` starts no process.  The attributes are ``None``
    (``workers`` 0) while the pool is closed.

    Attributes:
        executor: The ``ProcessPoolExecutor`` of the open pool.
        manager: The ``multiprocessing`` manager that serves the channel.
        channel: The manager queue its workers report through.
        workers: Worker count of the open pool.
        rounds: Rounds started on this pool object so far; the latest is
            the token of the round now running.
    """

    def __init__(self) -> None:
        self.manager = None
        self.channel = None
        self.executor: Optional[ProcessPoolExecutor] = None
        self.workers = 0
        self.rounds = 0

    def acquire(self, workers: int) -> int:
        """Open or reuse a pool of ``workers`` workers; return a round token.

        The open pool is reused only with the same worker count and while
        every process of it — each worker and the manager — is alive: an
        idle worker killed between two rounds would otherwise fail the next
        round's jobs.  Any other pool is closed and a new one built.
        """
        if self.executor is not None and (workers != self.workers
                                          or not self._alive()):
            self.close()
        if self.executor is None:
            import multiprocessing

            self.manager = multiprocessing.Manager()
            self.channel = self.manager.Queue()
            self.executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(self.channel,))
            self.workers = workers
        self.rounds += 1
        return self.rounds

    def processes(self) -> List:
        """The open pool's worker processes (none before its first task)."""
        return list((getattr(self.executor, "_processes", None)
                     or {}).values())

    def _alive(self) -> bool:
        return (not getattr(self.executor, "_broken", False)
                and self.manager._process.is_alive()
                and all(process.is_alive() for process in self.processes()))

    def close(self, kill: bool = False) -> None:
        """Shut the pool down; the next :meth:`acquire` builds a new one.

        ``kill`` terminates the workers instead of waiting for their tasks
        (an interrupted round: a worker may be mid-job or hung).  Either
        way every worker is joined, so no process outlives the pool.
        """
        if self.executor is None:
            return
        processes = self.processes()
        if kill:
            for process in processes:
                process.terminate()
        self.executor.shutdown(wait=not kill, cancel_futures=True)
        for process in processes:
            process.join()
        self.manager.shutdown()
        self.manager = self.channel = self.executor = None
        self.workers = 0


#: Per thread: the :class:`WarmPool` of the open :func:`pool_scope`.
_scope = threading.local()


@contextmanager
def pool_scope() -> Iterator[WarmPool]:
    """Keep the calling thread's pool workers warm until the scope ends.

    Inside a scope, every :meth:`ProcessPoolBackend.run_round` of this
    thread runs on the scope's :class:`WarmPool`, so consecutive rounds and
    runs share one set of worker processes with their per-process caches.
    A nested scope does nothing but yield the open pool.  Leaving the
    outermost scope shuts the pool down and joins its workers.
    :meth:`~repro.api.runner.Runner.run` opens a scope around its rounds,
    and each :class:`~repro.api.server.ScenarioServer` worker thread one
    for its whole life.
    """
    pool = getattr(_scope, "pool", None)
    if pool is not None:
        yield pool
        return
    pool = _scope.pool = WarmPool()
    try:
        yield pool
    finally:
        _scope.pool = None
        pool.close()


class ProcessPoolBackend:
    """Run jobs on a ``ProcessPoolExecutor`` with lost-worker detection.

    The executor of every ``jobs > 1`` run.  Each job is one task,
    submitted in ``(-_job_cost, index)`` order.  Results stream back through
    a manager queue rather than through the futures, so a worker crash (or
    kill), which breaks every pending future at once, loses only the jobs
    that had not finished — everything already reported is committed by the
    runner the moment it arrives.  With a ``job_timeout``, the parent watches each in-flight
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
        """Execute one round on the calling thread's warm pool.

        Inside a :func:`pool_scope` the round runs on the scope's pool,
        built at the first pool round, and a clean round leaves it open
        for the next.  The round closes it, so that the next round builds
        a fresh one, when a worker was lost, a hung job was killed, or an
        interrupt (or a server cancel) passed through the round.  Outside
        any scope the pool lives for this one round.
        """
        with pool_scope() as pool:
            token = pool.acquire(round_.workers)
            try:
                clean = self._run_pool(round_, pool, token)
            except BaseException:
                pool.close(kill=True)
                raise
            if not clean:
                pool.close()

    def _run_pool(self, round_: ExecutionRound, pool: WarmPool,
                  token: int) -> bool:
        """Run the round's jobs; True when the pool is fit for reuse."""
        executor = pool.executor
        channel = pool.channel
        done: set = set()
        started: Dict[int, float] = {}
        hung: set = set()
        errors: Dict[int, str] = {}
        order = sorted(round_.jobs,
                       key=lambda i: (-_job_cost(round_.jobs[i]), i))
        try:
            pending = {
                executor.submit(_pool_worker, index, round_.jobs[index],
                                round_.attempts.get(index, 0),
                                round_.delays.get(index, 0.0),
                                round_.fault_plan, token): index
                for index in order}
            while pending:
                finished, _ = wait(pending, timeout=self.POLL_SECONDS,
                                   return_when=FIRST_COMPLETED)
                self._drain(channel, token, round_, done, started)
                for future in finished:
                    index = pending.pop(future)
                    try:
                        future.result()
                    except Exception:
                        # BrokenProcessPool and friends: the job is lost
                        # unless its "done" message already arrived.
                        errors[index] = traceback.format_exc()
                if round_.job_timeout is not None and pending:
                    self._kill_overdue(pool, round_, done, started, hung)
        except BaseException:
            # SIGTERM/SIGINT land here as KeyboardInterrupt/SystemExit
            # (``cli run`` and ``cli serve`` convert SIGTERM).  Graceful
            # exit means: commit everything the workers already reported;
            # ``run_round`` then *kills* the in-flight workers — a default
            # shutdown would block on them (possibly forever, if one is
            # hung), and their half-finished jobs re-execute on resume
            # anyway.  The runner's ``finally`` block then writes the
            # manifest, so the store the stopped process leaves behind is
            # cleanly resumable.
            self._drain(channel, token, round_, done, started)
            raise
        clean = not errors and not hung
        if not clean:
            # Messages may still be in flight when the pool breaks; the
            # drain after the shutdown collects them.
            executor.shutdown(wait=True)
        self._drain(channel, token, round_, done, started)
        for index in order:
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
                    error=errors.get(
                        index, f"worker lost before finishing job "
                               f"{job_id!r}")))
        return clean

    def _drain(self, channel, token: int, round_: ExecutionRound, done: set,
               started: Dict[int, float]) -> None:
        """Consume queued worker messages, emitting finished outcomes.

        A message of another round (its token differs) is dropped: on a
        warm pool it can only be a leftover, and its job index may name a
        different job of this round.
        """
        while True:
            try:
                message = channel.get_nowait()
            except Empty:
                return
            if message[1] != token:
                continue
            if message[0] == "start":
                started[message[2]] = message[3]
                continue
            outcome = message[2]
            if outcome.index not in done:
                done.add(outcome.index)
                round_.emit(outcome)

    def _kill_overdue(self, pool: WarmPool, round_: ExecutionRound,
                      done: set, started: Dict[int, float],
                      hung: set) -> None:
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
        for process in pool.processes():
            process.terminate()
