"""Client for the scenario service: typed requests over one socket.

A :class:`ScenarioClient` connects to a running
:class:`~repro.api.server.ScenarioServer` (Unix domain socket by default,
``tcp:host:port`` optional), frames requests/responses through
:mod:`repro.api.protocol`, and re-raises server failures as
:class:`ServerError` carrying the canonical error code — callers branch on
``exc.code``, never on message text.

Minimal usage::

    from repro.api.client import ScenarioClient

    with ScenarioClient("runs/server.sock") as client:
        submitted = client.submit(scenario_dict)
        final = client.watch(submitted["job_id"],
                             on_event=lambda e: print(e["done"], e["total"]))
        print(client.report(job_id=submitted["job_id"])["report"])

The client is transport only: scenario validation happens server-side (an
invalid scenario comes back as ``INVALID_SCENARIO`` with the underlying
validation message), and everything returned is the plain JSON the server
sent.
"""

from __future__ import annotations

import socket
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .protocol import Event, Request, decode_server_message, encode

#: Signature of the watch-event callback: ``on_event(data_dict)``.
EventFn = Callable[[Dict], None]


class ServerError(RuntimeError):
    """A failure response from the scenario server.

    Attributes:
        code: The canonical protocol error code
            (:data:`repro.api.protocol.ERROR_CODES`).
        message: The server's human-readable cause.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def parse_address(value: Union[str, Path]) -> Tuple[str, object]:
    """Parse a server address into ``(kind, target)``.

    ``"tcp:HOST:PORT"`` selects TCP; anything else is a Unix-domain-socket
    path (the default transport).

    Raises:
        ValueError: for a malformed TCP address.
    """
    text = str(value)
    if text.startswith("tcp:"):
        rest = text[len("tcp:"):]
        host, separator, port = rest.rpartition(":")
        if not separator or not host or not port.isdigit():
            raise ValueError(f"malformed TCP address {text!r}; expected "
                             "tcp:HOST:PORT")
        return "tcp", (host, int(port))
    return "unix", text


class ScenarioClient:
    """One connection to a scenario server.

    Args:
        address: Unix-socket path, or ``tcp:host:port``.
        timeout: Per-response socket timeout in seconds (``None`` waits
            forever — what ``watch`` on a long run needs).

    The client is usable as a context manager; the underlying connection is
    opened lazily on the first request.  One client is one socket and one
    in-flight request at a time (calls are serialised by an internal lock);
    concurrent clients simply open more connections.
    """

    def __init__(self, address: Union[str, Path],
                 timeout: Optional[float] = None) -> None:
        self.kind, self.target = parse_address(address)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._sequence = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------- transport

    def connect(self) -> "ScenarioClient":
        """Open the connection (idempotent; requests call this lazily).

        Raises:
            ConnectionError: when no server is listening at the address.
        """
        if self._sock is not None:
            return self
        if self.kind == "tcp":
            sock = socket.create_connection(self.target,
                                            timeout=self.timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(str(self.target))
            except OSError as exc:
                sock.close()
                raise ConnectionError(
                    f"no scenario server listening on {self.target} "
                    f"({exc})") from exc
        self._sock = sock
        self._reader = sock.makefile("rb")
        return self

    def close(self) -> None:
        """Close the connection (safe to call repeatedly)."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._sock = None

    def __enter__(self) -> "ScenarioClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- calling

    def _next_id(self) -> str:
        self._sequence += 1
        return f"req-{self._sequence}"

    def _read_message(self):
        line = self._reader.readline()
        if not line:
            raise ConnectionError("scenario server closed the connection")
        return decode_server_message(line)

    def call(self, op: str, params: Optional[Dict] = None,
             on_event: Optional[EventFn] = None) -> Dict:
        """Send one request and return the success result.

        Streamed events arriving before the final response (the ``watch``
        op) are handed to ``on_event``; without a callback they are
        collected silently.

        Raises:
            ServerError: for a failure response (``exc.code`` is the
                canonical protocol code).
            ConnectionError: when the server is unreachable or hangs up.
            ProtocolError: when the server sends an undecodable line.
        """
        with self._lock:
            self.connect()
            request = Request(op=op, id=self._next_id(),
                              params=dict(params or {}))
            self._sock.sendall(encode(request))
            while True:
                message = self._read_message()
                if isinstance(message, Event):
                    if message.id == request.id and on_event is not None:
                        on_event(message.data)
                    continue
                if message.id != request.id:
                    continue  # stale response of an interrupted call
                if message.ok:
                    return dict(message.result or {})
                error = message.error or {}
                raise ServerError(error.get("code", "INTERNAL"),
                                  error.get("message", "(no message)"))

    # ------------------------------------------------------------------- ops

    def ping(self) -> Dict:
        """Server liveness, job counts and plan-cache statistics."""
        return self.call("ping")

    def submit(self, scenario: Union[Dict, "object", Path, str],
               store: Optional[Union[str, Path]] = None) -> Dict:
        """Submit a scenario; returns the job summary (``job_id``, ...).

        ``scenario`` may be a dict (the JSON form), a
        :class:`~repro.api.scenario.Scenario`, or a path to a scenario
        JSON file.  ``store`` overrides the server's per-fingerprint
        default store directory.
        """
        from .scenario import Scenario

        if isinstance(scenario, (str, Path)):
            # Raw JSON on purpose: validation is the server's job, so an
            # invalid file comes back as INVALID_SCENARIO with the exact
            # validation message instead of failing client-side.
            import json

            path = Path(scenario)
            if not path.exists():
                raise ValueError(f"scenario file {path} does not exist")
            try:
                scenario = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ValueError(f"scenario file {path} is not valid JSON: "
                                 f"{exc}") from exc
        if isinstance(scenario, Scenario):
            scenario = scenario.to_dict()
        params: Dict[str, object] = {"scenario": scenario}
        if store is not None:
            params["store"] = str(store)
        return self.call("submit", params)

    def status(self, job_id: str) -> Dict:
        """Current state of one job (plus plan-cache statistics)."""
        return self.call("status", {"job_id": job_id})

    def watch(self, job_id: str,
              on_event: Optional[EventFn] = None) -> Dict:
        """Stream a job's progress events until it finishes.

        Replays the history first (watching a finished job yields every
        event, then returns), then follows live.  Returns the final job
        summary.
        """
        return self.call("watch", {"job_id": job_id}, on_event=on_event)

    def cancel(self, job_id: str) -> Dict:
        """Cancel a queued job now, or a running one at its next boundary."""
        return self.call("cancel", {"job_id": job_id})

    def report(self, job_id: Optional[str] = None,
               store: Optional[Union[str, Path]] = None) -> Dict:
        """Re-render a store's report server-side (no re-simulation).

        Pass ``job_id`` for a store the server ran, or ``store`` for any
        store path visible to the server.  The result carries both the
        rendered text (``"report"``) and the machine-readable JSON
        (``"data"``).
        """
        params: Dict[str, object] = {}
        if job_id is not None:
            params["job_id"] = job_id
        if store is not None:
            params["store"] = str(store)
        return self.call("report", params)

    def jobs(self) -> List[Dict]:
        """Summaries of every job the server knows about."""
        return list(self.call("list").get("jobs", []))

    def shutdown(self, mode: str = "drain") -> Dict:
        """Ask the server to shut down (``"drain"`` or ``"cancel"``)."""
        return self.call("shutdown", {"mode": mode})
