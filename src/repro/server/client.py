"""A small blocking client for the PPD debug service.

Drives the JSON-lines protocol over one TCP connection::

    with DebugClient.connect("127.0.0.1:4455") as client:
        session = client.open_program(source, seed=0)
        print(session.execute("why average"))
        print(session.execute("races"))
        session.close()

Every structured error reply from the server raises :class:`ServerError`
carrying the protocol error code, so scripts can distinguish, say, an
``unknown-session`` from a ``timeout``.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Optional

from ..obs import hooks as _obs
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    RETRY_SAFE_OPS,
    RETRYABLE_ERROR_CODES,
    Request,
    Response,
    decode_response,
    encode_request,
)

DEFAULT_PORT = 4455


class ConnectFailed(ConnectionError):
    """The connection could not be *established* (refused, unreachable,
    DNS failure).  No request was ever sent, so any op is safe to retry."""


class ConnectionLost(ConnectionError):
    """The connection died *mid-request* (peer closed, reset, read
    timeout).  The request may or may not have executed server-side, so
    only :data:`~repro.server.protocol.RETRY_SAFE_OPS` are safe to
    re-send automatically."""


class ServerError(Exception):
    """The server answered with a structured error reply."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message

    @property
    def retryable(self) -> bool:
        """True when the code names a transient server condition (see
        :data:`~repro.server.protocol.RETRYABLE_ERROR_CODES`)."""
        return self.code in RETRYABLE_ERROR_CODES


def parse_addr(text: str, default_port: int = DEFAULT_PORT) -> tuple[str, int]:
    """``host:port``, bare ``host``, or bare ``:port`` -> (host, port)."""
    host, _, port_text = text.rpartition(":")
    if not host:
        if port_text.isdigit():
            return ("127.0.0.1", int(port_text))
        return (port_text or "127.0.0.1", default_port)
    if not port_text.isdigit():
        raise ValueError(f"bad address {text!r} (expected host:port)")
    return (host, int(port_text))


class DebugClient:
    """One blocking connection to a debug service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 60.0,
        max_retries: int = 0,
        retry_backoff_s: float = 0.1,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: With ``max_retries`` > 0, :meth:`call` transparently retries
        #: retry-safe ops after a lost connection or a retryable error
        #: reply (exponential backoff, reconnecting as needed).
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retries = 0
        self.reconnects = 0
        self._jitter = random.Random(0x5EED)
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._next_id = 0

    @classmethod
    def connect(
        cls,
        addr: str,
        *,
        timeout: float = 60.0,
        retries: int = 0,
        retry_delay: float = 0.2,
    ) -> "DebugClient":
        """Connect to ``host:port``, retrying while the server starts up."""
        host, port = parse_addr(addr)
        client = cls(host, port, timeout=timeout)
        attempt = 0
        while True:
            try:
                client.open()
                return client
            except OSError:
                attempt += 1
                if attempt > retries:
                    raise
                time.sleep(retry_delay)

    # ------------------------------------------------------------------

    def open(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except ConnectFailed:
            raise
        except OSError as error:
            raise ConnectFailed(
                f"cannot connect to {self.host}:{self.port}: {error}"
            ) from error
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "DebugClient":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def call(
        self,
        op: str,
        *,
        session: Optional[str] = None,
        args: Optional[list[str]] = None,
        **payload: Any,
    ) -> Response:
        """Send one request, wait for its reply; raises :class:`ServerError`.

        With ``max_retries`` set, a :class:`ConnectionLost` on a
        retry-safe op (pure queries — never ``save``/``load``/``expand``,
        whose effects can't be confirmed) triggers reconnect-and-resend,
        and a retryable error reply (``timeout``, ``server-busy``)
        triggers backoff-and-resend.  Everything else propagates on the
        first failure.
        """
        attempt = 0
        while True:
            try:
                return self._call_once(op, session=session, args=args, payload=payload)
            except ConnectionLost:
                self.close()
                if op not in RETRY_SAFE_OPS or attempt >= self.max_retries:
                    raise
                self.reconnects += 1
                if _obs.enabled:
                    _obs.on_recovery("client.reconnects")
            except ConnectFailed:
                self.close()
                if attempt >= self.max_retries:
                    raise
            except ServerError as error:
                if not error.retryable or attempt >= self.max_retries:
                    raise
            attempt += 1
            self.retries += 1
            if _obs.enabled:
                _obs.on_recovery("client.retries")
            time.sleep(self._backoff(attempt))

    def _backoff(self, attempt: int) -> float:
        base = self.retry_backoff_s * (2 ** (attempt - 1))
        return base + self._jitter.uniform(0.0, self.retry_backoff_s / 2.0)

    def _call_once(
        self,
        op: str,
        *,
        session: Optional[str],
        args: Optional[list[str]],
        payload: dict[str, Any],
    ) -> Response:
        self.open()
        self._next_id += 1
        request = Request(
            op=op,
            id=self._next_id,
            session=session,
            args=list(args or []),
            payload={k: v for k, v in payload.items() if v is not None},
        )
        try:
            self._sock.sendall(encode_request(request).encode("utf-8"))
            raw = self._reader.readline(MAX_LINE_BYTES + 1)
        except socket.timeout as error:
            raise ConnectionLost(f"request timed out after {self.timeout}s") from error
        except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError) as error:
            raise ConnectionLost(f"connection died mid-request: {error}") from error
        if not raw:
            raise ConnectionLost("server closed the connection")
        response = decode_response(raw.decode("utf-8"))
        if not response.ok:
            error = response.error or {}
            raise ServerError(
                error.get("code", "internal"), error.get("message", "unknown error")
            )
        if response.id != request.id:
            raise ProtocolError(
                "bad-request",
                f"response id {response.id} does not match request id {request.id}",
            )
        return response

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def ping(self) -> str:
        return self.call("ping").output

    def open_program(
        self,
        source: str,
        *,
        seed: int = 0,
        inputs: Optional[list[Any]] = None,
    ) -> "RemoteSession":
        """Upload a PCL program; the server runs it (logged) and opens a
        session over the execution record."""
        response = self.call("open", program=source, seed=seed, inputs=inputs)
        return RemoteSession(self, response.data["session"], response.data.get("info", {}))

    def open_record(
        self, path: Optional[str] = None, *, json_text: Optional[str] = None, upload: bool = True
    ) -> "RemoteSession":
        """Open a session over a persisted record.

        With ``upload`` (default) a local *path* is read here and its JSON
        shipped over the wire; with ``upload=False`` the path is resolved
        on the **server's** filesystem.
        """
        if (path is None) == (json_text is None):
            raise ValueError("pass exactly one of path/json_text")
        if json_text is None and upload:
            with open(path) as handle:
                json_text = handle.read()
            path = None
        if json_text is not None:
            response = self.call("open", record_json=json_text)
        else:
            response = self.call("open", record_path=path)
        return RemoteSession(self, response.data["session"], response.data.get("info", {}))

    def execute(self, session: str, line: str) -> str:
        """Run one debugger command line in a remote session, returning
        exactly the text a local :class:`PPDCommandLine` would print."""
        parts = line.strip().split()
        if not parts:
            return ""
        response = self.call(parts[0].lower(), session=session, args=parts[1:])
        return response.output or ""

    def close_session(self, session: str) -> None:
        self.call("close", session=session)

    def sessions(self) -> list[dict[str, Any]]:
        return self.call("list").data.get("sessions", [])

    def shutdown_server(self) -> str:
        """Ask the service to drain and exit."""
        return self.call("shutdown").output


class RemoteSession:
    """A convenience handle pairing a client with one session id."""

    def __init__(self, client: DebugClient, sid: str, info: dict[str, Any]) -> None:
        self.client = client
        self.sid = sid
        self.info = info

    def execute(self, line: str) -> str:
        return self.client.execute(self.sid, line)

    def close(self) -> None:
        self.client.close_session(self.sid)

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.close()
        except (ServerError, ConnectionError, OSError):
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RemoteSession({self.sid!r})"
