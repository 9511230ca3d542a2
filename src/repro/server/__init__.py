"""repro.server — the PPD debug service.

The paper separates cheap logged execution from later, interactive
debugging over the saved logs (§1, §5).  This package turns that
debugging phase into a long-lived, multi-session network service:

* :mod:`.protocol` — versioned JSON-lines request/response wire format;
* :mod:`.sessions` — thread-safe session manager (LRU cap, idle-timeout
  eviction, transparent rehydration from persist records);
* :mod:`.service` — threaded TCP server with per-request timeouts,
  connection backpressure, structured errors, and graceful drain;
* :mod:`.client` — a small blocking client library with typed connection
  errors and opt-in retry of retry-safe ops.

Served and driven from the command line as ``ppd serve <addr>`` and
``ppd connect <addr>`` (see :mod:`repro.core.cli`).
"""

from .client import (
    DEFAULT_PORT,
    ConnectFailed,
    ConnectionLost,
    DebugClient,
    RemoteSession,
    ServerError,
    parse_addr,
)
from .protocol import (
    ALL_OPS,
    LIFECYCLE_OPS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    RETRY_SAFE_OPS,
    RETRYABLE_ERROR_CODES,
    VERBS,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
    validate_request,
)
from .service import DebugService, RequestTimeout
from .sessions import JOURNALED_COMMANDS, SessionManager, SessionNotFound

__all__ = [
    "ALL_OPS",
    "ConnectFailed",
    "ConnectionLost",
    "DEFAULT_PORT",
    "DebugClient",
    "DebugService",
    "JOURNALED_COMMANDS",
    "LIFECYCLE_OPS",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RETRYABLE_ERROR_CODES",
    "RETRY_SAFE_OPS",
    "RemoteSession",
    "Request",
    "RequestTimeout",
    "Response",
    "ServerError",
    "SessionManager",
    "SessionNotFound",
    "VERBS",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "error_response",
    "parse_addr",
    "validate_request",
]
