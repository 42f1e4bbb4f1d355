"""Persistent scenario service: submit jobs, stream progress, stay warm.

Every workload used to be one ``cli run`` process, so the process-wide plan
cache and the per-process design cache died with it — back-to-back
scenario runs paid full recompilation every time.  A
:class:`ScenarioServer` keeps one process alive across submissions: clients
connect over a newline-delimited-JSON socket (Unix domain socket by
default, TCP optional), submit scenarios, and every run executes through
the existing :class:`~repro.api.runner.Runner` / executor /
:class:`~repro.api.store.ResultsStore` stack *in this process*, so all
requests share one warm plan cache and one base-design cache.  With
``run_jobs > 1`` each worker thread also keeps one pool of ``run_jobs``
worker processes warm for its whole life
(:func:`~repro.api.backends.pool_scope`): later runs reuse the same
processes and, in each of them, its own bounded caches (8 base designs, 8
locked cells, 128 plans).  The ``ping``/``status`` plan-cache counts cover
the server process only.  Pool workers fork when a thread's first pool run
starts, so components must be registered at import time, as the
:class:`~repro.api.runner.Runner` docstring requires.

Mechanics:

* **Typed protocol** — requests/responses/events are the envelopes of
  :mod:`repro.api.protocol`; every failure carries a canonical error code.
  A request line longer than ``MAX_REQUEST_BYTES`` gets
  ``REQUEST_TOO_LARGE`` and the connection is closed.
* **Bounded worker queue** — ``workers`` threads drain a FIFO of submitted
  jobs; submissions beyond that simply queue (``status`` reports the
  position).  Default 1 worker: runs execute strictly in submission order.
* **Dedup by fingerprint** — a resubmitted scenario (same
  :meth:`~repro.api.scenario.Scenario.fingerprint`) maps onto the existing
  job/store instead of a new run; even across server restarts the per-
  fingerprint store path makes the run a pure resume (0 jobs executed on a
  complete store).
* **Streaming progress** — the Runner's ``progress`` hook feeds per-job
  event lists that ``watch`` requests replay and then follow live.
* **Cancellation** — queued jobs cancel immediately; running jobs are
  stopped at the next job boundary by raising :class:`JobCancelled` from
  the progress hook (a ``BaseException``, so the runner's
  swallow-observer-errors contract does not apply), which leaves the store
  cleanly resumable — the runner's ``finally`` block has already committed
  every finished record and rewritten the manifest.
* **Graceful shutdown** — ``shutdown`` drains the queue or cancels
  in-flight runs; either way stores are left resumable and late requests
  get ``SHUTTING_DOWN``.

The server itself is transport + bookkeeping only (~no simulation logic):
everything it runs is the same library code ``cli run`` uses, which is what
makes server-side stores bit-identical to local ones.
"""

from __future__ import annotations

import logging
import os
import queue
import socket
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple

from .backends import pool_scope
from .protocol import (MAX_REQUEST_BYTES, PROTOCOL_VERSION, Event,
                       ProtocolError, Request, Response, decode_request,
                       encode)
from .scenario import Scenario, ScenarioError
from .store import ResultsStore, StoreError, write_json_atomic

_log = logging.getLogger(__name__)

#: Job lifecycle states (terminal: done/failed/cancelled).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


class JobCancelled(BaseException):
    """Raised inside a running job's progress hook to stop it.

    Deliberately a ``BaseException``: the runner's progress-hook contract
    swallows ``Exception`` (an observer must not abort a run), and
    cancellation is precisely the case that *must* abort it.  The runner's
    ``finally`` block still runs, so every record committed before the
    cancel survives and the store resumes cleanly.
    """


@dataclass
class ServerJob:
    """Bookkeeping of one submitted scenario run."""

    job_id: str
    scenario: Scenario
    fingerprint: str
    store_path: Path
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done: int = 0
    total: int = 0
    executed: int = 0
    skipped: int = 0
    quarantined: int = 0
    failures: int = 0
    error: Optional[str] = None
    events: List[Dict] = field(default_factory=list)
    cond: threading.Condition = field(default_factory=threading.Condition)
    cancel_requested: bool = False

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self.state in ("done", "failed", "cancelled")

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary served by ``status``/``list``/``submit``."""
        return {
            "job_id": self.job_id,
            "scenario": self.scenario.name,
            "fingerprint": self.fingerprint,
            "store": str(self.store_path),
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "executed": self.executed,
            "skipped": self.skipped,
            "quarantined": self.quarantined,
            "failures": self.failures,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    def push_event(self, data: Dict[str, object]) -> None:
        """Append one progress event and wake every watcher."""
        with self.cond:
            self.events.append(data)
            self.cond.notify_all()

    def transition(self, state: str, **updates) -> None:
        """Move to ``state`` (waking watchers so streams can finish)."""
        with self.cond:
            self.state = state
            for name, value in updates.items():
                setattr(self, name, value)
            self.cond.notify_all()


def _plan_cache_stats() -> Dict[str, int]:
    """Snapshot of the process-wide plan cache (the warm-cache gate data)."""
    from ..sim import plan_cache_info

    info = plan_cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.size,
            "maxsize": info.maxsize}


class ScenarioServer:
    """A persistent scenario-service daemon.

    Args:
        runs_root: Directory where per-scenario stores live; a submitted
            scenario without an explicit ``store`` param gets
            ``<runs_root>/<name>-<fingerprint>`` — the fingerprint in the
            path is what makes resubmission (even across server restarts)
            a pure resume.
        socket_path: Unix-domain-socket path to listen on (the default
            transport; ``<runs_root>/server.sock`` when neither transport
            is given).
        host / port: TCP transport instead of the Unix socket.
        workers: Concurrent scenario runs (worker threads over the job
            queue).  All of them share this process's plan cache.
        run_jobs: Worker *processes* each run may use (the Runner's
            ``jobs`` argument).  Default 1: serial in-process execution,
            which keeps every simulation inside the warm-cache process.
            Above 1, each worker thread keeps ``run_jobs`` warm pool
            workers from its first pool run until the server stops (each
            worker with its own bounded caches: 8 designs, 8 locked cells,
            128 plans); a pool that a run broke is rebuilt for the next
            one, and :meth:`stop` joins every worker.

    Raises:
        ValueError: for a non-positive ``workers``/``run_jobs`` or both
            transports configured at once.
    """

    def __init__(self, runs_root: Path, socket_path: Optional[Path] = None,
                 host: Optional[str] = None, port: Optional[int] = None,
                 workers: int = 1, run_jobs: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if run_jobs < 1:
            raise ValueError("run_jobs must be positive")
        if socket_path is not None and host is not None:
            raise ValueError("configure either socket_path or host/port, "
                             "not both")
        if (host is None) != (port is None):
            raise ValueError("TCP transport needs both host and port")
        self.runs_root = Path(runs_root)
        self.socket_path = (Path(socket_path) if socket_path is not None
                            else None if host is not None
                            else self.runs_root / "server.sock")
        self.host = host
        self.port = port
        self.workers = workers
        self.run_jobs = run_jobs
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._jobs: Dict[str, ServerJob] = {}
        self._by_fingerprint: Dict[Tuple[str, str], str] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._sequence = 0
        self._shutting_down = False
        self._shutdown_mode: Optional[str] = None
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------- lifecycle

    @property
    def address(self) -> str:
        """The address clients connect to (``cli submit --socket ...``)."""
        if self.host is not None:
            return f"tcp:{self.host}:{self.port}"
        return str(self.socket_path)

    def start(self) -> None:
        """Bind the listener and start the accept + worker threads."""
        self.runs_root.mkdir(parents=True, exist_ok=True)
        if self.host is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            # An OS-assigned port (port=0) is resolved at bind time.
            self.port = listener.getsockname()[1]
        else:
            assert self.socket_path is not None
            if self.socket_path.exists():
                # A dead server's socket file would make bind() fail even
                # though nobody is listening; a live server holds the
                # listener open, so connect() distinguishes the two.
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(str(self.socket_path))
                except OSError:
                    self.socket_path.unlink()
                else:
                    probe.close()
                    raise OSError(
                        f"another server is already listening on "
                        f"{self.socket_path}")
                finally:
                    probe.close()
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(self.socket_path))
        listener.listen()
        self._listener = listener
        accept = threading.Thread(target=self._accept_loop,
                                  name="scenario-server-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        for number in range(self.workers):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"scenario-worker-{number}",
                                      daemon=True)
            worker.start()
            self._threads.append(worker)
        _log.info("scenario server listening on %s (%d worker(s))",
                  self.address, self.workers)

    def serve_forever(self) -> None:
        """Block until the server is stopped (shutdown op or :meth:`stop`)."""
        self._stop.wait()
        self._join_workers()

    def stop(self, mode: str = "cancel") -> None:
        """Stop the server from the owning thread (signal handlers, tests).

        ``mode="drain"`` lets queued and running jobs finish first;
        ``mode="cancel"`` (the default — what SIGTERM wants) cancels them
        at the next job boundary.  Either way every store is left
        resumable.
        """
        self._initiate_shutdown(mode)
        self._join_workers()

    def _join_workers(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._listener = None
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30.0)
        self._threads = []
        if self.socket_path is not None and self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _initiate_shutdown(self, mode: str) -> None:
        if mode not in ("drain", "cancel"):
            raise ValueError(f"unknown shutdown mode {mode!r}; "
                             "use 'drain' or 'cancel'")
        with self._lock:
            if self._shutting_down:
                return
            self._shutting_down = True
            self._shutdown_mode = mode
            jobs = list(self._jobs.values())
        if mode == "cancel":
            for job in jobs:
                self._cancel_job(job)
        # One sentinel per worker: drain mode's workers finish the real
        # queue first, cancel mode's workers skip the cancelled entries.
        for _ in range(self.workers):
            self._queue.put(None)
        self._stop.set()

    # ----------------------------------------------------------- accept loop

    def _accept_loop(self) -> None:
        # The accept timeout is the shutdown poll: closing a listening
        # socket does not reliably wake a thread already blocked in
        # accept(), so the loop re-checks the stop flag between attempts.
        assert self._listener is not None
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed: shutdown
            connection.settimeout(None)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(connection,), daemon=True)
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        """Handle one client connection: a loop of NDJSON requests."""
        reader = connection.makefile("rb")
        try:
            while True:
                line = reader.readline(MAX_REQUEST_BYTES + 1)
                if not line:
                    break
                if len(line) > MAX_REQUEST_BYTES:
                    self._refuse_oversized(connection, reader, line)
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    self._send(connection,
                               Response.failure("-", exc.code, exc.message))
                    continue
                try:
                    if request.op == "watch":
                        self._handle_watch(connection, request)
                    else:
                        result = self._dispatch(request)
                        self._send(connection,
                                   Response.success(request.id, result))
                except ProtocolError as exc:
                    self._send(connection, Response.failure(
                        request.id, exc.code, exc.message))
                except Exception:
                    # The traceback stays in the server log; the client
                    # gets an id to find it there.
                    error_id = uuid.uuid4().hex[:8]
                    _log.exception("internal error %s handling %r",
                                   error_id, request.op)
                    self._send(connection, Response.failure(
                        request.id, "INTERNAL",
                        f"internal error {error_id}; see server log"))
        except (OSError, ValueError):
            pass  # client went away mid-request
        finally:
            try:
                reader.close()
                connection.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _refuse_oversized(self, connection: socket.socket, reader: BinaryIO,
                          line: bytes) -> None:
        """Answer an over-long request line, then read past its end.

        Closing a socket with unread bytes resets the connection, and the
        reset can drop the reply, so the rest of the line is read in
        bounded chunks and discarded before the caller hangs up.
        """
        self._send(connection, Response.failure(
            "-", "REQUEST_TOO_LARGE",
            f"request line longer than {MAX_REQUEST_BYTES} bytes"))
        while line and not line.endswith(b"\n"):
            line = reader.readline(1 << 16)

    def _send(self, connection: socket.socket, message) -> None:
        connection.sendall(encode(message))

    # ------------------------------------------------------------ dispatching

    def _dispatch(self, request: Request) -> Dict[str, object]:
        handler = {
            "ping": self._op_ping,
            "submit": self._op_submit,
            "status": self._op_status,
            "cancel": self._op_cancel,
            "report": self._op_report,
            "list": self._op_list,
            "shutdown": self._op_shutdown,
        }.get(request.op)
        if handler is None:
            from .protocol import OPS

            raise ProtocolError("UNKNOWN_OP",
                                f"unknown op {request.op!r}; supported: "
                                f"{', '.join(OPS)}")
        return handler(request.params)

    def _get_job(self, params: Dict) -> ServerJob:
        job_id = params.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ProtocolError("INVALID_REQUEST",
                                "params need a non-empty string 'job_id'")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            with self._lock:
                known = sorted(self._jobs)
            raise ProtocolError(
                "UNKNOWN_JOB",
                f"no job {job_id!r} on this server; known jobs: "
                f"{', '.join(known) if known else '(none)'}")
        return job

    # -------------------------------------------------------------------- ops

    def _op_ping(self, params: Dict) -> Dict[str, object]:
        with self._lock:
            states: Dict[str, int] = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            shutting_down = self._shutting_down
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "address": self.address,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "runs_root": str(self.runs_root),
            "workers": self.workers,
            "jobs": states,
            "plan_cache": _plan_cache_stats(),
            "shutting_down": shutting_down,
        }

    def _op_submit(self, params: Dict) -> Dict[str, object]:
        with self._lock:
            if self._shutting_down:
                raise ProtocolError("SHUTTING_DOWN",
                                    "server is shutting down and accepts "
                                    "no new scenarios")
        data = params.get("scenario")
        if not isinstance(data, dict):
            raise ProtocolError("INVALID_REQUEST",
                                "params need a 'scenario' object "
                                "(the Scenario JSON form)")
        try:
            scenario = Scenario.from_dict(data)
        except ScenarioError as exc:
            # The canonical code for clients, the exact validation message
            # for humans — never a bare "invalid scenario".
            raise ProtocolError("INVALID_SCENARIO", str(exc)) from exc
        fingerprint = scenario.fingerprint()
        store_param = params.get("store")
        if store_param is not None and not isinstance(store_param, str):
            raise ProtocolError("INVALID_REQUEST",
                                "params 'store' must be a string path")
        store_path = (Path(store_param) if store_param is not None
                      else self.runs_root / f"{scenario.name}-{fingerprint}")
        with self._lock:
            dedup_key = (fingerprint, str(store_path))
            existing_id = self._by_fingerprint.get(dedup_key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if not existing.terminal or existing.state == "done":
                    # Same scenario, same store: the existing run (finished
                    # or still going) already is the answer.
                    result = existing.describe()
                    result["deduplicated"] = True
                    return result
            self._sequence += 1
            job = ServerJob(job_id=f"job-{self._sequence:04d}",
                            scenario=scenario, fingerprint=fingerprint,
                            store_path=store_path)
            job.total = len(scenario.expand())
            self._jobs[job.job_id] = job
            self._by_fingerprint[dedup_key] = job.job_id
            position = self._queue.qsize()
        self._queue.put(job.job_id)
        result = job.describe()
        result["deduplicated"] = False
        result["position"] = position
        return result

    def _op_status(self, params: Dict) -> Dict[str, object]:
        job = self._get_job(params)
        result = job.describe()
        result["plan_cache"] = _plan_cache_stats()
        return result

    def _op_cancel(self, params: Dict) -> Dict[str, object]:
        job = self._get_job(params)
        changed = self._cancel_job(job)
        result = job.describe()
        result["changed"] = changed
        return result

    def _op_report(self, params: Dict) -> Dict[str, object]:
        store_param = params.get("store")
        if store_param is not None:
            if not isinstance(store_param, str):
                raise ProtocolError("INVALID_REQUEST",
                                    "params 'store' must be a string path")
            store_path = Path(store_param)
        else:
            store_path = self._get_job(params).store_path
        from ..eval import store_report, store_report_json
        from ..eval.reporting import store_context

        store = ResultsStore(store_path)
        if not store.root.exists():
            raise ProtocolError("STORE_ERROR",
                                f"results store {store.root} does not exist")
        try:
            context = store_context(store)
            return {
                "store": str(store.root),
                "report": store_report(store, context=context),
                "data": store_report_json(store, context=context),
            }
        except StoreError as exc:
            raise ProtocolError("STORE_ERROR", str(exc)) from exc

    def _op_list(self, params: Dict) -> Dict[str, object]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda job: job.job_id)
        return {"jobs": [job.describe() for job in jobs]}

    def _op_shutdown(self, params: Dict) -> Dict[str, object]:
        mode = params.get("mode", "drain")
        if mode not in ("drain", "cancel"):
            raise ProtocolError("INVALID_REQUEST",
                                f"unknown shutdown mode {mode!r}; "
                                "use 'drain' or 'cancel'")
        with self._lock:
            outstanding = sum(1 for job in self._jobs.values()
                              if not job.terminal)
        # Respond first, then stop: the short timer lets the success
        # response reach the socket before the listener goes away.
        timer = threading.Timer(0.1, self._initiate_shutdown, args=(mode,))
        timer.daemon = True
        timer.start()
        return {"shutting_down": True, "mode": mode,
                "outstanding_jobs": outstanding}

    # ------------------------------------------------------------------ watch

    def _handle_watch(self, connection: socket.socket,
                      request: Request) -> None:
        """Stream a job's progress events, then the final state.

        Events are replayed from the beginning — a watcher attaching late
        (or to a finished job) still sees the whole history — and then
        followed live until the job reaches a terminal state.
        """
        job = self._get_job(request.params)
        cursor = 0
        while True:
            with job.cond:
                while cursor >= len(job.events) and not job.terminal:
                    job.cond.wait(timeout=1.0)
                fresh = job.events[cursor:]
                cursor += len(fresh)
                terminal = job.terminal and cursor >= len(job.events)
            for data in fresh:
                self._send(connection,
                           Event(id=request.id, event="progress", data=data))
            if terminal:
                self._send(connection,
                           Response.success(request.id, job.describe()))
                return

    # ------------------------------------------------------------ cancelling

    def _cancel_job(self, job: ServerJob) -> bool:
        """Request cancellation; True when the job's fate changed."""
        with job.cond:
            if job.terminal:
                return False
            job.cancel_requested = True
            if job.state == "queued":
                # The queue entry stays; the worker skips cancelled jobs.
                job.state = "cancelled"
                job.finished_at = time.time()
                job.cond.notify_all()
                return True
        return True  # running: the progress hook raises at the next job

    # ----------------------------------------------------------- worker loop

    def _worker_loop(self) -> None:
        # The thread's pool scope keeps its ``run_jobs`` workers warm from
        # one run to the next; leaving it at the shutdown sentinel joins
        # them, so a stopped server leaves no process behind.
        with pool_scope():
            while True:
                job_id = self._queue.get()
                if job_id is None:
                    return  # shutdown sentinel
                with self._lock:
                    job = self._jobs[job_id]
                with job.cond:
                    if job.state != "queued":
                        continue  # cancelled while queued
                    job.state = "running"
                    job.started_at = time.time()
                try:
                    self._run_job(job)
                except JobCancelled:
                    job.transition("cancelled", finished_at=time.time())
                    _log.info("job %s cancelled (store %s stays resumable)",
                              job.job_id, job.store_path)
                except Exception:
                    job.transition("failed", finished_at=time.time(),
                                   error=traceback.format_exc())
                    _log.exception("job %s failed", job.job_id)

    def _run_job(self, job: ServerJob) -> None:
        """Execute one submitted scenario through the library runner."""
        from .runner import Runner

        def progress(done: int, total: int, record: Dict) -> None:
            with job.cond:
                job.done, job.total = done, total
            job.push_event({
                "job_id": record.get("job_id"),
                "kind": record.get("kind"),
                "done": done,
                "total": total,
                "elapsed_seconds": record.get("elapsed_seconds"),
            })
            if job.cancel_requested:
                raise JobCancelled(job.job_id)

        report = Runner(job.scenario, store=ResultsStore(job.store_path),
                        jobs=self.run_jobs, progress=progress).run()
        job.transition("done", finished_at=time.time(),
                       done=report.skipped + report.executed,
                       total=report.total, executed=report.executed,
                       skipped=report.skipped,
                       quarantined=report.quarantined,
                       failures=len(report.failures))


def run_server(runs_root: Path, socket_path: Optional[Path] = None,
               host: Optional[str] = None, port: Optional[int] = None,
               workers: int = 1, run_jobs: int = 1,
               ready: Optional[Path] = None) -> int:
    """Start a server and block until it is shut down (the ``cli serve`` body).

    Installs SIGTERM/SIGINT handlers that cancel in-flight runs at the next
    job boundary — a killed daemon leaves every store resumable.  ``ready``
    names a file written atomically (with the server address) once the
    listener is bound, so scripts can wait for startup without polling the
    socket.
    """
    import signal

    server = ScenarioServer(runs_root=runs_root, socket_path=socket_path,
                            host=host, port=port, workers=workers,
                            run_jobs=run_jobs)
    server.start()
    if ready is not None:
        ready.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(ready, {"address": server.address,
                                  "pid": os.getpid()})

    def _graceful(signum, frame):
        _log.info("signal %s: shutting down (cancelling in-flight runs)",
                  signum)
        server._initiate_shutdown("cancel")

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _graceful)
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
