"""Pluggable executor backends and the fault-tolerance primitives above them.

The :class:`~repro.api.runner.Runner` used to hard-code two execution paths
(an in-process loop and a ``ProcessPoolExecutor`` drain).  This module turns
that into a seam: an :class:`ExecutorBackend` executes one *round* of jobs
and reports every job's fate through a uniform :class:`JobOutcome`, while
the runner owns policy — retry rounds, backoff, quarantine, the failure
ledger.  Backends register by name (:func:`register_backend`), so
``Runner(backend="serial")`` / ``cli run --backend process`` select them and
multi-host backends can plug in later without touching the runner.

Built-in backends:

* :class:`SerialBackend` (``"serial"``) — runs jobs in the calling process.
  Timeouts are *post-hoc* (a job that finishes over budget is discarded and
  failed as ``timeout``) because an in-process job cannot be pre-empted.
* :class:`ProcessPoolBackend` (``"process"``) — a ``ProcessPoolExecutor``
  with per-job result streaming and heartbeat-based lost-worker detection:
  workers report ``start``/``done`` messages through a manager queue, the
  parent commits records as they arrive, and a job whose heartbeat exceeds
  ``job_timeout`` gets its worker killed — the chunk's other results are
  already home, and only genuinely unfinished jobs fail.  A crashed worker
  (``BrokenProcessPool``) likewise fails only the jobs without a ``done``
  message.

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
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from queue import Empty
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Type

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
    """Fate of one job attempt, as reported by a backend.

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
    """Everything a backend needs to execute one round of jobs.

    One round is one pass over a set of pending jobs — the first round runs
    the whole todo list, later rounds re-run the jobs whose previous
    attempt failed transiently.  Backends call :attr:`emit` exactly once
    per job as its fate is known (successes stream out immediately, so the
    runner commits them even if the round later loses a worker).

    Attributes:
        scenario_dict: ``Scenario.to_dict()`` form (workers re-expand it).
        jobs: ``{index: JobSpec}`` of the pending jobs.
        chunks: Dispatch groups of job indices (scheduling is runner
            policy; backends just execute them).
        attempts: ``{index: prior failure count}`` — the attempt number of
            this round's execution per job.
        delays: ``{index: seconds}`` retry backoff, slept by the executor
            before the job starts (inside the worker for pool backends, so
            delays of different jobs overlap).
        workers: Worker processes available to the round.
        max_lanes: Runner-level lane cap forwarded to ``execute_job``.
        job_timeout: Per-job wall-clock budget in seconds, or ``None``.
        fault_plan: Optional deterministic fault-injection plan.
        emit: Outcome callback; must be called once per pending job.
    """

    scenario_dict: Dict
    jobs: Mapping[int, "object"]
    chunks: List[List[int]]
    attempts: Mapping[int, int]
    delays: Mapping[int, float]
    workers: int
    max_lanes: Optional[int]
    job_timeout: Optional[float]
    fault_plan: Optional[object]
    emit: Callable[[JobOutcome], None]


class ExecutorBackend(ABC):
    """One way of executing scenario jobs (in-process, pool, remote, ...).

    A backend executes the rounds the runner hands it and reports per-job
    :class:`JobOutcome` values through ``round.emit``.  It owns *mechanism*
    (where jobs run, how hangs and lost workers are detected); the runner
    owns *policy* (retries, backoff, quarantine, the ledger).
    """

    #: Registry name of the backend (set by :func:`register_backend`).
    name: str = "?"

    @abstractmethod
    def run_round(self, round_: ExecutionRound) -> None:
        """Execute one round, emitting exactly one outcome per pending job."""

    def close(self) -> None:
        """Release backend resources (called once per run, in ``finally``)."""


_BACKENDS: Dict[str, Type[ExecutorBackend]] = {}


def register_backend(name: str) -> Callable[[Type[ExecutorBackend]],
                                            Type[ExecutorBackend]]:
    """Class decorator registering an :class:`ExecutorBackend` under a name.

    The name becomes valid for ``Runner(backend=...)``, the scenario
    ``backend`` field and ``cli run --backend``.
    """
    def decorate(cls: Type[ExecutorBackend]) -> Type[ExecutorBackend]:
        cls.name = name
        _BACKENDS[name] = cls
        return cls
    return decorate


def backend_names() -> List[str]:
    """Sorted names of every registered executor backend."""
    return sorted(_BACKENDS)


def make_backend(name: str) -> ExecutorBackend:
    """Instantiate a registered backend by name.

    Raises:
        ValueError: for an unregistered name.
    """
    cls = _BACKENDS.get(name)
    if cls is None:
        raise ValueError(f"unknown executor backend {name!r}; registered: "
                         f"{', '.join(backend_names())}")
    return cls()


@register_backend("serial")
class SerialBackend(ExecutorBackend):
    """Run every job in the calling process, one at a time.

    The reference backend: no pickling, no worker processes.
    ``job_timeout`` is enforced *post-hoc* — an in-process job cannot be
    pre-empted, so a job that completes over budget is discarded and failed
    as ``timeout`` (timeout semantics are an SLA, not best-effort: a job
    that only ever finishes late ends up quarantined, same as under the pool
    backend).
    """

    def run_round(self, round_: ExecutionRound) -> None:
        """Execute the round's chunks sequentially in dispatch order."""
        from .runner import execute_job

        for chunk in round_.chunks:
            for index in chunk:
                job = round_.jobs[index]
                attempt = round_.attempts.get(index, 0)
                delay = round_.delays.get(index, 0.0)
                if delay > 0:
                    time.sleep(delay)
                started = time.monotonic()
                try:
                    record = execute_job(job, max_lanes=round_.max_lanes,
                                         fault_plan=round_.fault_plan,
                                         attempt=attempt)
                except Exception:
                    round_.emit(JobOutcome(
                        index=index, job_id=job.job_id, attempt=attempt,
                        kind="error", error=traceback.format_exc()))
                    continue
                elapsed = time.monotonic() - started
                if (round_.job_timeout is not None
                        and elapsed > round_.job_timeout):
                    round_.emit(JobOutcome(
                        index=index, job_id=job.job_id, attempt=attempt,
                        kind="timeout",
                        error=f"job {job.job_id!r} took {elapsed:.3f}s, over "
                              f"the {round_.job_timeout}s job_timeout "
                              "(serial backend enforces timeouts post-hoc)"))
                else:
                    round_.emit(JobOutcome(index=index, job_id=job.job_id,
                                           attempt=attempt, record=record))


def _pool_worker(scenario_dict: Dict, indices: Sequence[int],
                 attempts: Dict[int, int], delays: Dict[int, float],
                 max_lanes: Optional[int], fault_plan, channel) -> List[int]:
    """Worker entry point: execute a chunk, streaming per-job messages.

    Each job sends a ``("start", index, monotonic)`` heartbeat before its
    body and a ``("done", index, record, error)`` result after it, so the
    parent commits results as they happen and can tell a hung job (start
    without done, heartbeat overdue) from a lost one (no messages at all).
    The scenario is re-expanded here without registry validation, matching
    the historical worker behaviour.
    """
    from .runner import execute_job
    from .scenario import Scenario

    scenario = Scenario.from_dict(scenario_dict, validate=False)
    jobs = scenario.expand()
    for index in indices:
        delay = delays.get(index, 0.0)
        if delay > 0:
            time.sleep(delay)
        channel.put(("start", index, time.monotonic()))
        try:
            record = execute_job(jobs[index], max_lanes=max_lanes,
                                 fault_plan=fault_plan,
                                 attempt=attempts.get(index, 0),
                                 in_worker=True)
        except Exception:
            channel.put(("done", index, None, traceback.format_exc()))
        else:
            channel.put(("done", index, record, None))
    return list(indices)


@register_backend("process")
class ProcessPoolBackend(ExecutorBackend):
    """Run jobs on a ``ProcessPoolExecutor`` with lost-worker detection.

    Results stream back per job through a manager queue rather than per
    chunk through the future, so a worker crash (or kill) loses only the
    jobs that had not finished — everything already reported is committed
    by the runner the moment it arrives.  With a ``job_timeout``, the
    parent watches each in-flight job's ``start`` heartbeat; once a job is
    overdue past a grace margin the pool's workers are killed (there is no
    cooperative way to stop a hung child), the hung job fails as
    ``timeout`` and the other unfinished jobs as ``crash`` — both
    transient, so a retry budget re-runs them on a fresh pool.

    Interrupts (SIGTERM/SIGINT arriving as ``KeyboardInterrupt`` /
    ``SystemExit``) exit *gracefully*: already-reported results are drained
    and committed, in-flight workers are killed rather than awaited, and
    the exception propagates so the runner's ``finally`` block writes the
    manifest — a stopped run leaves a cleanly resumable store.
    """

    #: Drain/heartbeat polling period of the parent loop, in seconds.
    POLL_SECONDS = 0.2

    def __init__(self) -> None:
        self._manager = None

    def _queue(self):
        """A fresh message queue from the (lazily started) manager."""
        if self._manager is None:
            import multiprocessing

            self._manager = multiprocessing.Manager()
        return self._manager.Queue()

    def close(self) -> None:
        """Shut the manager process down."""
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    def run_round(self, round_: ExecutionRound) -> None:
        """Execute one round on a fresh pool (see class docstring)."""
        channel = self._queue()
        done: set = set()
        started: Dict[int, float] = {}
        hung: set = set()
        chunk_errors: Dict[int, str] = {}
        pool = ProcessPoolExecutor(max_workers=round_.workers)
        try:
            pending = {
                pool.submit(_pool_worker, round_.scenario_dict, list(chunk),
                            {i: round_.attempts.get(i, 0) for i in chunk},
                            {i: round_.delays.get(i, 0.0) for i in chunk},
                            round_.max_lanes, round_.fault_plan,
                            channel): list(chunk)
                for chunk in round_.chunks}
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
        for chunk in round_.chunks:
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
            _, index, record, error = message
            if index in done:
                continue
            done.add(index)
            attempt = round_.attempts.get(index, 0)
            job_id = round_.jobs[index].job_id
            if error is None:
                round_.emit(JobOutcome(index=index, job_id=job_id,
                                       attempt=attempt, record=record))
            else:
                round_.emit(JobOutcome(index=index, job_id=job_id,
                                       attempt=attempt, kind="error",
                                       error=error))

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
