"""Wire-format tests of the scenario-service protocol envelopes."""

import json

import pytest

from repro.api.protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    Event,
    ProtocolError,
    Request,
    Response,
    decode_line,
    decode_request,
    decode_server_message,
    encode,
)


def roundtrip(message):
    """Encode then decode one message the way the other side would."""
    wire = encode(message)
    assert wire.endswith(b"\n")
    assert b"\n" not in wire[:-1]  # one line is one message
    if isinstance(message, Request):
        return decode_request(wire)
    return decode_server_message(wire)


class TestEnvelopes:
    def test_request_roundtrip(self):
        request = Request(op="submit", id="req-1",
                          params={"scenario": {"name": "x"}})
        assert roundtrip(request) == request

    def test_success_response_roundtrip(self):
        response = Response.success("req-2", {"job_id": "job-0001"})
        decoded = roundtrip(response)
        assert decoded == response
        assert decoded.ok and decoded.error is None

    def test_failure_response_roundtrip(self):
        response = Response.failure("req-3", "UNKNOWN_JOB", "no job-9999")
        decoded = roundtrip(response)
        assert decoded == response
        assert not decoded.ok
        assert decoded.error == {"code": "UNKNOWN_JOB",
                                 "message": "no job-9999"}

    def test_event_roundtrip(self):
        event = Event(id="req-4", event="progress",
                      data={"done": 1, "total": 2})
        assert roundtrip(event) == event

    def test_event_and_response_are_disjoint_on_the_wire(self):
        # The client decoder dispatches on the field set alone.
        assert isinstance(decode_server_message(encode(
            Event(id="a", event="progress"))), Event)
        assert isinstance(decode_server_message(encode(
            Response.success("a", {}))), Response)

    def test_encode_is_compact_single_line_json(self):
        wire = encode(Request(op="ping", id="r",
                              params={"note": "line\nbreak"}))
        assert wire.count(b"\n") == 1  # embedded newlines stay escaped
        assert json.loads(wire) == {"op": "ping", "id": "r",
                                    "params": {"note": "line\nbreak"}}


class TestDecodeErrors:
    @pytest.mark.parametrize("line", ["not json", "[1, 2]", '"string"'])
    def test_non_object_lines_are_invalid_requests(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(line)
        assert excinfo.value.code == "INVALID_REQUEST"

    def test_non_utf8_bytes_are_invalid(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"\xff\xfe{}")
        assert excinfo.value.code == "INVALID_REQUEST"

    @pytest.mark.parametrize("payload", [
        {},                                      # missing everything
        {"op": "ping"},                          # missing id
        {"op": "", "id": "r"},                   # empty op
        {"op": "ping", "id": 7},                 # non-string id
        {"op": "ping", "id": "r", "params": 3},  # non-object params
        {"op": "ping", "id": "r", "extra": 1},   # unknown field
    ])
    def test_malformed_request_envelopes(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps(payload))
        assert excinfo.value.code == "INVALID_REQUEST"

    @pytest.mark.parametrize("payload", [
        {"id": "r"},                              # missing ok
        {"id": "r", "ok": "yes"},                 # non-boolean ok
        {"id": "r", "ok": False},                 # failure without error
        {"id": "r", "ok": False, "error": {"code": "X"}},  # no message
    ])
    def test_malformed_response_envelopes(self, payload):
        with pytest.raises(ProtocolError):
            decode_server_message(json.dumps(payload))

    def test_stale_response_ids_still_decode(self):
        # Correlation is the client's job; the decoder only checks shape.
        decoded = decode_server_message(encode(Response.success("other", {})))
        assert decoded.id == "other"


class TestProtocolError:
    def test_carries_canonical_code(self):
        error = ProtocolError("STORE_ERROR", "manifest unreadable")
        assert error.code == "STORE_ERROR"
        assert error.to_error() == {"code": "STORE_ERROR",
                                    "message": "manifest unreadable"}

    def test_rejects_unknown_codes(self):
        # Canonical codes are the compatibility contract — a typo must not
        # silently mint a new one.
        with pytest.raises(ValueError, match="canonical codes"):
            ProtocolError("NO_SUCH_CODE", "whatever")

    def test_expected_codes_are_canonical(self):
        for code in ("INVALID_SCENARIO", "UNKNOWN_JOB", "SHUTTING_DOWN"):
            assert code in ERROR_CODES

    def test_ops_and_version(self):
        assert PROTOCOL_VERSION == 1
        for op in ("submit", "status", "watch", "cancel", "report", "list",
                   "ping", "shutdown"):
            assert op in OPS
