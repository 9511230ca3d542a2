"""The PPD debug-service wire protocol (versioned JSON lines).

One request per line, one response per line, UTF-8 JSON with sorted keys
— a format a shell script, a test, or another language can speak.  The
protocol covers the full :class:`~repro.core.cli.PPDCommandLine` verb
set (so a remote session's transcript is byte-identical to a local one)
plus session lifecycle operations.

Request line::

    {"args":["average"],"id":7,"op":"why","session":"s1","v":2}

``open`` carries its parameters inline (exactly one source, a string;
``program`` may add an integer ``seed`` and an ``inputs`` integer list):

    {"id":1,"inputs":[10,20],"op":"open","program":"proc main() {...}","seed":0,"v":2}
    {"id":1,"op":"open","record_json":"{...}","v":2}
    {"id":1,"op":"open","record_path":"/tmp/run.ppd.json","v":2}

Response line::

    {"id":7,"ok":true,"output":"average <- ...","v":2}
    {"error":{"code":"unknown-session","message":"..."},"id":7,"ok":false,"v":2}

Structured errors carry a machine-readable ``code`` (see
:data:`ERROR_CODES`) and a human message — never a stack trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

#: Protocol revision; bumped on any incompatible wire change (2: ``open``
#: no longer takes an ``engine``, and its fields are type-checked).
PROTOCOL_VERSION = 2

#: Hard cap on one wire line (requests may upload whole persist records).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Debugger verbs proxied 1:1 to :class:`PPDCommandLine.execute`.
VERBS = frozenset(
    {
        "where",
        "output",
        "graph",
        "view",
        "why",
        "back",
        "forward",
        "expand",
        "expandable",
        "races",
        "lint",
        "localize",
        "candidates",
        "deadlock",
        "parallel",
        "restore",
        "history",
        "slice",
        "stats",
        "save",
        "load",
        "help",
    }
)

#: Service-level operations (no session transcript semantics).
LIFECYCLE_OPS = frozenset({"open", "close", "list", "ping", "shutdown"})

#: Every op the service understands.
ALL_OPS = VERBS | LIFECYCLE_OPS

#: The closed set of error codes a reply may carry.
ERROR_CODES = frozenset(
    {
        "bad-json",
        "bad-version",
        "bad-request",
        "line-too-long",
        "unknown-verb",
        "unknown-session",
        "open-failed",
        "persist-error",
        "timeout",
        "server-busy",
        "shutting-down",
        "internal",
    }
)

#: Error codes that describe a *transient* server condition: the request
#: was either never started or is safe to re-issue, so a client may retry
#: (with backoff) without risking duplicated side effects.
RETRYABLE_ERROR_CODES = frozenset({"timeout", "server-busy"})

#: Ops that are safe to re-send after a mid-request connection loss: pure
#: queries plus idempotent lifecycle probes.  ``save``/``load`` touch the
#: filesystem and ``expand`` mutates (and journals into) the dynamic
#: graph, so a client cannot know whether a lost request took effect.
RETRY_SAFE_OPS = frozenset(VERBS - {"save", "load", "expand"}) | frozenset(
    {"ping", "list"}
)

_REQUEST_KEYS = ("v", "id", "op", "session", "args")
_RESPONSE_KEYS = ("v", "id", "ok", "output", "error")


class ProtocolError(Exception):
    """A malformed or unacceptable wire message."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class Request:
    """One decoded request.  ``payload`` holds op-specific inline fields
    (``program``/``seed``/``inputs``/``record_json``/``record_path``)."""

    op: str
    id: int = 0
    session: Optional[str] = None
    args: list[str] = field(default_factory=list)
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def line(self) -> str:
        """The verb as one CLI command line (``why average``)."""
        return " ".join([self.op, *self.args])


@dataclass
class Response:
    """One decoded response.  ``data`` holds op-specific inline fields
    (``session``/``info`` for open, ``sessions`` for list)."""

    id: int = 0
    ok: bool = True
    output: Optional[str] = None
    error: Optional[dict[str, str]] = None
    data: dict[str, Any] = field(default_factory=dict)


def error_response(request_id: int, code: str, message: str) -> Response:
    if code not in ERROR_CODES:
        code = "internal"
    return Response(id=request_id, ok=False, error={"code": code, "message": message})


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _dump(body: dict[str, Any]) -> str:
    return json.dumps(body, separators=(",", ":"), sort_keys=True) + "\n"


def encode_request(request: Request) -> str:
    body: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request.id, "op": request.op}
    if request.session is not None:
        body["session"] = request.session
    if request.args:
        body["args"] = list(request.args)
    for key, value in request.payload.items():
        if key in _REQUEST_KEYS:
            raise ProtocolError("bad-request", f"payload key {key!r} is reserved")
        body[key] = value
    return _dump(body)


def encode_response(response: Response) -> str:
    body: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": response.id,
        "ok": response.ok,
    }
    if response.output is not None:
        body["output"] = response.output
    if response.error is not None:
        body["error"] = response.error
    for key, value in response.data.items():
        if key in _RESPONSE_KEYS:
            raise ProtocolError("bad-request", f"data key {key!r} is reserved")
        body[key] = value
    return _dump(body)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _parse_line(line: str) -> dict[str, Any]:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "line-too-long", f"wire line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        body = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError("bad-json", f"not valid JSON: {error}") from error
    if not isinstance(body, dict):
        raise ProtocolError("bad-json", "wire line is not a JSON object")
    version = body.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad-version",
            f"protocol version {version!r} not supported (this end speaks "
            f"{PROTOCOL_VERSION})",
        )
    return body


def decode_request(line: str) -> Request:
    """Parse and validate one request line; raises :class:`ProtocolError`."""
    body = _parse_line(line)
    op = body.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("bad-request", "request has no 'op'")
    request_id = body.get("id", 0)
    if not isinstance(request_id, int):
        raise ProtocolError("bad-request", "request 'id' must be an integer")
    session = body.get("session")
    if session is not None and not isinstance(session, str):
        raise ProtocolError("bad-request", "request 'session' must be a string")
    args = body.get("args", [])
    if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
        raise ProtocolError("bad-request", "request 'args' must be a list of strings")
    payload = {k: v for k, v in body.items() if k not in _REQUEST_KEYS}
    request = Request(op=op, id=request_id, session=session, args=args, payload=payload)
    validate_request(request)
    return request


def decode_response(line: str) -> Response:
    """Parse one response line; raises :class:`ProtocolError`."""
    body = _parse_line(line)
    ok = body.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError("bad-request", "response has no boolean 'ok'")
    error = body.get("error")
    if error is not None and (
        not isinstance(error, dict) or "code" not in error or "message" not in error
    ):
        raise ProtocolError("bad-request", "response 'error' must carry code+message")
    data = {k: v for k, v in body.items() if k not in _RESPONSE_KEYS}
    return Response(
        id=body.get("id", 0),
        ok=ok,
        output=body.get("output"),
        error=error,
        data=data,
    )


def validate_request(request: Request) -> None:
    """Shape checks shared by client and server; raises :class:`ProtocolError`."""
    if request.op not in ALL_OPS:
        raise ProtocolError("unknown-verb", f"unknown op {request.op!r}")
    if request.op in VERBS and request.session is None:
        raise ProtocolError("bad-request", f"verb {request.op!r} requires a 'session'")
    if request.op == "open":
        sources = [
            key
            for key in ("program", "record_json", "record_path")
            if request.payload.get(key) is not None
        ]
        if len(sources) != 1:
            raise ProtocolError(
                "bad-request",
                "open requires exactly one of program/record_json/record_path",
            )
        _validate_open_fields(request.payload, sources[0])
    if request.op == "close" and request.session is None:
        raise ProtocolError("bad-request", "close requires a 'session'")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_open_fields(payload: dict[str, Any], source: str) -> None:
    """Type-check ``open``'s inline fields before anything acts on them (a
    non-string ``record_path`` would otherwise reach ``open()`` as a file
    descriptor)."""
    if not isinstance(payload[source], str):
        raise ProtocolError("bad-request", f"open field {source!r} must be a string")
    if not _is_int(payload.get("seed", 0)):
        raise ProtocolError("bad-request", "open field 'seed' must be an integer")
    inputs = payload.get("inputs")
    if inputs is not None and not (
        isinstance(inputs, list) and all(_is_int(value) for value in inputs)
    ):
        raise ProtocolError("bad-request", "open field 'inputs' must be a list of integers")
