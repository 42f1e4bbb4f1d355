"""Typed request/response protocol of the scenario service.

The scenario server (:mod:`repro.api.server`) and client
(:mod:`repro.api.client`) speak newline-delimited JSON over a stream socket:
every line is one *message* — a :class:`Request` from the client, and a
:class:`Response` or (for streamed ops like ``watch``) a sequence of
:class:`Event` lines followed by a final :class:`Response` from the server.
This module is the single definition of that wire format, so the two sides
— and any third-party client — cannot drift apart.

Envelopes:

* ``Request``  — ``{"op": ..., "id": ..., "params": {...}}``
* ``Response`` — ``{"id": ..., "ok": true, "result": {...}}`` or
  ``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``
* ``Event``    — ``{"id": ..., "event": ..., "data": {...}}`` (server-pushed
  progress lines; never final)

``id`` is the client-chosen correlation token: the server echoes it on every
response and event belonging to the request, so one connection can carry
interleaved traffic.

Error codes are canonical and stable (:data:`ERROR_CODES`) — clients branch
on ``error["code"]``, never on message text.  ``error["message"]`` always
carries the underlying human-readable cause (e.g. the exact
:class:`~repro.api.scenario.ScenarioError` text behind an
``INVALID_SCENARIO``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

#: Wire-format version, echoed by the ``ping`` op.  Bump on incompatible
#: envelope changes.
PROTOCOL_VERSION = 1

#: Longest request line the server reads, newline included; a longer one
#: gets ``REQUEST_TOO_LARGE`` and the server hangs up.
MAX_REQUEST_BYTES = 1 << 20

#: Operations the server understands (the ``op`` field of a request).
OPS = ("ping", "submit", "status", "watch", "cancel", "report", "list",
       "shutdown")

#: Canonical, stable error codes.  Clients branch on these; messages are
#: for humans.
ERROR_CODES = (
    "INVALID_REQUEST",      # malformed envelope or missing/ill-typed params
    "UNKNOWN_OP",           # op not in OPS
    "INVALID_SCENARIO",     # scenario failed validation (message = cause)
    "UNKNOWN_JOB",          # job id not known to this server
    "STORE_ERROR",          # results store missing/corrupt/unreadable
    "SHUTTING_DOWN",        # server no longer accepts new work
    "INTERNAL",             # unexpected server-side failure
    "REQUEST_TOO_LARGE",    # request line over MAX_REQUEST_BYTES
)


class ProtocolError(Exception):
    """A protocol-level failure with a canonical error code.

    Raised by the server's op handlers (and by the envelope decoders on
    malformed input); the connection loop converts it into a failure
    :class:`Response`.  The client re-raises server failures as
    :class:`~repro.api.client.ServerError`, which carries the same fields.

    Attributes:
        code: One of :data:`ERROR_CODES`.
        message: Human-readable cause (the underlying validation message,
            traceback summary, ...).
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}; "
                             f"canonical codes: {', '.join(ERROR_CODES)}")
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def to_error(self) -> Dict[str, str]:
        """The ``error`` object of a failure response."""
        return {"code": self.code, "message": self.message}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError("INVALID_REQUEST", message)


@dataclass(frozen=True)
class Request:
    """One client request: an operation, a correlation id and parameters."""

    op: str
    id: str
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form."""
        return {"op": self.op, "id": self.id, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Request":
        """Validate and build a request from a decoded wire object.

        Raises:
            ProtocolError: ``INVALID_REQUEST`` for a malformed envelope
                (the op's *existence* is checked by the server dispatcher,
                which answers ``UNKNOWN_OP`` instead).
        """
        _require(isinstance(data, Mapping), "request must be a JSON object")
        unknown = set(data) - {"op", "id", "params"}
        _require(not unknown,
                 f"unknown request field(s): {', '.join(sorted(unknown))}")
        op = data.get("op")
        _require(isinstance(op, str) and bool(op),
                 "request needs a non-empty string 'op'")
        request_id = data.get("id")
        _require(isinstance(request_id, str) and bool(request_id),
                 "request needs a non-empty string 'id'")
        params = data.get("params", {})
        _require(isinstance(params, Mapping),
                 "request 'params' must be an object")
        return cls(op=op, id=request_id, params=dict(params))


@dataclass(frozen=True)
class Response:
    """One server reply: success with a result, or failure with an error."""

    id: str
    ok: bool
    result: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, str]] = None

    @classmethod
    def success(cls, request_id: str,
                result: Mapping[str, object]) -> "Response":
        """A success response carrying ``result``."""
        return cls(id=request_id, ok=True, result=dict(result))

    @classmethod
    def failure(cls, request_id: str, code: str, message: str) -> "Response":
        """A failure response with a canonical error code."""
        return cls(id=request_id, ok=False,
                   error=ProtocolError(code, message).to_error())

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form."""
        data: Dict[str, object] = {"id": self.id, "ok": self.ok}
        if self.ok:
            data["result"] = dict(self.result or {})
        else:
            data["error"] = dict(self.error or {})
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Response":
        """Validate and build a response from a decoded wire object."""
        _require(isinstance(data, Mapping), "response must be a JSON object")
        response_id = data.get("id")
        _require(isinstance(response_id, str) and bool(response_id),
                 "response needs a non-empty string 'id'")
        ok = data.get("ok")
        _require(isinstance(ok, bool), "response needs a boolean 'ok'")
        if ok:
            result = data.get("result", {})
            _require(isinstance(result, Mapping),
                     "success response 'result' must be an object")
            return cls(id=response_id, ok=True, result=dict(result))
        error = data.get("error")
        _require(isinstance(error, Mapping)
                 and isinstance(error.get("code"), str)
                 and isinstance(error.get("message"), str),
                 "failure response needs an error object with string "
                 "'code' and 'message'")
        return cls(id=response_id, ok=False, error=dict(error))


@dataclass(frozen=True)
class Event:
    """One server-pushed stream line of a long-running op (``watch``)."""

    id: str
    event: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form."""
        return {"id": self.id, "event": self.event, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Event":
        """Validate and build an event from a decoded wire object."""
        _require(isinstance(data, Mapping), "event must be a JSON object")
        event_id = data.get("id")
        _require(isinstance(event_id, str) and bool(event_id),
                 "event needs a non-empty string 'id'")
        name = data.get("event")
        _require(isinstance(name, str) and bool(name),
                 "event needs a non-empty string 'event'")
        payload = data.get("data", {})
        _require(isinstance(payload, Mapping),
                 "event 'data' must be an object")
        return cls(id=event_id, event=name, data=dict(payload))


Message = Union[Request, Response, Event]


def encode(message: Message) -> bytes:
    """Encode one message as a newline-terminated JSON line (UTF-8).

    Compact separators and no embedded newlines, so one line is always one
    complete message regardless of payload content.
    """
    return (json.dumps(message.to_dict(), separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_line(line: Union[str, bytes]) -> Dict:
    """Decode one wire line into its raw JSON object.

    Raises:
        ProtocolError: ``INVALID_REQUEST`` for non-JSON or non-object lines.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("INVALID_REQUEST",
                                f"message is not UTF-8: {exc}") from exc
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("INVALID_REQUEST",
                            f"message is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError("INVALID_REQUEST",
                            "message must be a JSON object")
    return data


def decode_request(line: Union[str, bytes]) -> Request:
    """Decode one wire line as a :class:`Request` (server side)."""
    return Request.from_dict(decode_line(line))


def decode_server_message(line: Union[str, bytes]) -> Union[Response, Event]:
    """Decode one wire line as a :class:`Response` or :class:`Event`.

    The client-side decoder: events carry an ``event`` field, responses an
    ``ok`` field — the two envelopes are disjoint on the wire.
    """
    data = decode_line(line)
    if "event" in data:
        return Event.from_dict(data)
    return Response.from_dict(data)
