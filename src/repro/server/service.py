"""The PPD debug service: a threaded TCP server over the wire protocol.

One daemon hosts many concurrent debugging sessions (the paper's
"debugging phase", §3.2.3, offered as a service): each accepted
connection gets a handler thread that reads JSON-line requests,
dispatches them through the shared :class:`SessionManager`, and writes
JSON-line responses.

Operational guarantees:

* **per-request timeouts** — a verb that exceeds ``request_timeout_s``
  gets a structured ``timeout`` error instead of wedging the connection;
* **backpressure** — beyond ``max_connections`` a client is refused with
  one ``server-busy`` error line instead of hanging in the backlog;
* **structured errors** — every failure is an error *reply* with a code
  and message; a stack trace never crosses the wire;
* **graceful drain** — :meth:`shutdown` stops accepting, lets in-flight
  requests finish, then closes remaining connections.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Optional, Union

from ..faults import state as _flt
from ..lang.errors import PCLError
from ..obs import hooks as _obs
from ..runtime.errors import PersistError
from .breaker import CircuitBreaker
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    Response,
    VERBS,
    decode_request,
    encode_response,
    error_response,
)
from .sessions import SessionManager, SessionNotFound


class RequestTimeout(Exception):
    """A request exceeded the service's per-request deadline."""


class DebugService:
    """A concurrent debug-session server.  ``start()`` returns once the
    listener is bound (port 0 picks a free port); ``shutdown()`` drains."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 8,
        idle_timeout_s: Optional[float] = None,
        request_timeout_s: Optional[float] = 30.0,
        max_connections: int = 32,
        connection_timeout_s: Optional[float] = 300.0,
        spool_dir: Optional[str] = None,
        pool_jobs: Union[int, str, None] = None,
        cache_dir: Optional[str] = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.request_timeout_s = request_timeout_s
        self.max_connections = max_connections
        self.connection_timeout_s = connection_timeout_s
        #: ``cache_dir`` makes the shared replay cache persistent: every
        #: admitted replay is write-through spilled there, keyed by record
        #: digest, so a restarted daemon (or a different process pointed at
        #: the same directory) serves previously-seen records warm.  The
        #: circuit breaker is orthogonal: shedding pools degrades *who*
        #: replays (inline vs workers), never the cache results themselves.
        cache = None
        if cache_dir:
            from ..perf import ReplayCache

            cache = ReplayCache(spill_dir=cache_dir)
        self.sessions = SessionManager(
            max_live=max_sessions,
            idle_timeout_s=idle_timeout_s,
            spool_dir=spool_dir,
            cache=cache,
            pool_jobs=pool_jobs,
        )
        #: Sheds replay pools (degraded inline mode) after a run of
        #: timeout/internal failures; restores them once requests succeed
        #: again past the cooldown.  Replay determinism keeps degraded
        #: answers byte-identical — the breaker trades speed, never truth.
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._handlers: list[threading.Thread] = []
        self._closing = threading.Event()
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> tuple[str, int]:
        """Bind and start accepting in a background thread."""
        listener = socket.create_server((self.host, self.port), backlog=16)
        listener.settimeout(0.2)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ppd-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def request_shutdown(self) -> None:
        """Ask the service to drain (used by the ``shutdown`` op and by
        signal handlers); :meth:`wait_for_shutdown` completes the drain."""
        self._closing.set()

    def wait_for_shutdown(self) -> None:
        """Block until a shutdown is requested, then drain fully."""
        self._closing.wait()
        self.shutdown()

    def shutdown(self, drain_timeout_s: float = 5.0) -> None:
        """Stop accepting, let in-flight requests finish, close everything."""
        self._closing.set()
        self._close_listener()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout_s)
        deadline = _deadline(drain_timeout_s)
        for thread in list(self._handlers):
            thread.join(timeout=deadline.remaining())
        with self._conn_lock:
            leftovers = list(self._connections)
        for conn in leftovers:
            _close_socket(conn)
        for thread in list(self._handlers):
            thread.join(timeout=deadline.remaining())
        self.sessions.close_all()
        self._stopped.set()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Accepting and handling connections
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            listener = self._listener
            if listener is None:
                break
            try:
                conn, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if self._closing.is_set():
                self._refuse(conn, "shutting-down", "service is draining")
                continue
            with self._conn_lock:
                active = len(self._connections)
                if active >= self.max_connections:
                    busy = True
                else:
                    busy = False
                    self._connections.add(conn)
            if busy:
                if _obs.enabled:
                    _obs.on_server_connection("rejected", active)
                self._refuse(
                    conn,
                    "server-busy",
                    f"connection limit reached ({self.max_connections})",
                )
                continue
            if _obs.enabled:
                _obs.on_server_connection("accepted", active + 1)
            thread = threading.Thread(
                target=self._handle, args=(conn,), name="ppd-conn", daemon=True
            )
            self._handlers.append(thread)
            thread.start()
        self._close_listener()

    def _refuse(self, conn: socket.socket, code: str, message: str) -> None:
        try:
            conn.sendall(encode_response(error_response(0, code, message)).encode())
        except OSError:
            pass
        _close_socket(conn)

    def _handle(self, conn: socket.socket) -> None:
        if self.connection_timeout_s is not None:
            conn.settimeout(self.connection_timeout_s)
        reader = conn.makefile("rb")
        try:
            while True:
                raw = reader.readline(MAX_LINE_BYTES + 1)
                if not raw:
                    break
                started = _obs.clock()
                verb, response = self._process(raw)
                self._feed_breaker(response)
                payload = encode_response(response).encode("utf-8")
                if _flt.active:
                    if _flt.fire("socket.drop") is not None:
                        # Injected connection death: the reply is never
                        # sent and the socket closes mid-request.
                        break
                    stall = _flt.fire("socket.stall")
                    if stall is not None:
                        time.sleep(stall.delay_s)
                conn.sendall(payload)
                if _obs.enabled:
                    _obs.on_server_request(
                        verb,
                        _obs.clock() - started,
                        response.ok,
                        len(raw),
                        len(payload),
                    )
                if self._closing.is_set():
                    break
        except (socket.timeout, OSError, ValueError):
            pass
        finally:
            try:
                reader.close()
            except OSError:
                pass
            _close_socket(conn)
            with self._conn_lock:
                self._connections.discard(conn)
                active = len(self._connections)
            if _obs.enabled:
                _obs.on_server_connection("closed", active)

    def _feed_breaker(self, response: Response) -> None:
        """Feed one request outcome to the circuit breaker.

        Only *infrastructure* failures (timeouts, internal errors) count
        against it — client mistakes (bad JSON, unknown sessions) say
        nothing about backend health.  Opening sheds every session's
        replay pool (degraded inline mode); closing restores them.
        """
        code = (response.error or {}).get("code") if not response.ok else None
        if code in ("timeout", "internal"):
            if self.breaker.record_failure():
                self.sessions.shed_pools()
                if _obs.enabled:
                    _obs.on_breaker(True)
        elif response.ok:
            if self.breaker.record_success():
                self.sessions.restore_pools()
                if _obs.enabled:
                    _obs.on_breaker(False)

    # ------------------------------------------------------------------
    # Request processing (every failure becomes a structured error reply)
    # ------------------------------------------------------------------

    def _process(self, raw: bytes) -> tuple[str, Response]:
        verb = "invalid"
        request_id = 0
        try:
            if len(raw) > MAX_LINE_BYTES:
                raise ProtocolError(
                    "line-too-long", f"request exceeds {MAX_LINE_BYTES} bytes"
                )
            request = decode_request(raw.decode("utf-8"))
            verb = request.op
            request_id = request.id
            return verb, self._dispatch(request)
        except ProtocolError as error:
            return verb, error_response(request_id, error.code, error.message)
        except SessionNotFound as error:
            return verb, error_response(request_id, "unknown-session", str(error))
        except PersistError as error:
            return verb, error_response(request_id, "persist-error", str(error))
        except RequestTimeout as error:
            return verb, error_response(request_id, "timeout", str(error))
        except UnicodeDecodeError:
            return verb, error_response(request_id, "bad-json", "request is not UTF-8")
        except PCLError as error:
            return verb, error_response(request_id, "open-failed", str(error))
        except Exception as error:  # noqa: BLE001 — the wire never sees a traceback
            return verb, error_response(
                request_id, "internal", f"{type(error).__name__}: {error}"
            )

    def _dispatch(self, request: Request) -> Response:
        if self._closing.is_set() and request.op != "shutdown":
            return error_response(request.id, "shutting-down", "service is draining")
        if request.op == "ping":
            return Response(id=request.id, output="pong")
        if request.op == "open":
            return self._op_open(request)
        if request.op == "close":
            self.sessions.close(request.session)
            return Response(id=request.id, output=f"closed {request.session}")
        if request.op == "list":
            return Response(
                id=request.id,
                data={
                    "sessions": self.sessions.list_info(),
                    "degraded": self.sessions.degraded,
                    "breaker": self.breaker.describe(),
                },
            )
        if request.op == "shutdown":
            self.request_shutdown()
            return Response(id=request.id, output="draining")
        assert request.op in VERBS, request.op  # decode_request validated
        output = self._timed(
            lambda: self.sessions.execute(request.session, request.line)
        )
        return Response(id=request.id, output=output)

    def _op_open(self, request: Request) -> Response:
        payload = request.payload

        def do_open() -> tuple[str, dict[str, Any]]:
            if payload.get("program") is not None:
                return self.sessions.open_program(
                    payload["program"],
                    seed=payload.get("seed", 0),
                    inputs=payload.get("inputs"),
                )
            if payload.get("record_json") is not None:
                return self.sessions.open_record_json(payload["record_json"])
            return self.sessions.open_record_path(payload["record_path"])

        sid, info = self._timed(do_open)
        return Response(
            id=request.id,
            output=f"opened {sid}",
            data={"session": sid, "info": info},
        )

    def _timed(self, work):
        """Run *work* under the per-request deadline.

        A Python thread cannot be killed, so on timeout the worker is
        abandoned (daemonised) and the client gets a ``timeout`` error;
        the session lock it may hold is released when it finishes.
        """
        if self.request_timeout_s is None:
            return work()
        box: dict[str, Any] = {}

        def run() -> None:
            try:
                box["result"] = work()
            except BaseException as error:  # noqa: BLE001 — re-raised below
                box["error"] = error

        worker = threading.Thread(target=run, name="ppd-request", daemon=True)
        worker.start()
        worker.join(self.request_timeout_s)
        if worker.is_alive():
            raise RequestTimeout(
                f"request exceeded {self.request_timeout_s:.1f}s deadline"
            )
        if "error" in box:
            raise box["error"]
        return box["result"]


def _close_socket(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass


class _deadline:
    def __init__(self, seconds: float) -> None:
        self._until = time.monotonic() + seconds

    def remaining(self) -> float:
        return max(0.0, self._until - time.monotonic())
