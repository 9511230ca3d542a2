"""The debug service's session store.

The paper's two-phase split (execution now, debugging later, §1/§5)
means a debugging session is *state over a persisted record*: the record
itself plus the deterministic command history that grew the dynamic
graph.  That makes sessions cheap to evict and rebuild — exactly what a
multi-tenant service needs:

* every admitted session is immediately spilled to a
  :mod:`repro.runtime.persist` record on disk (the service's "log
  files");
* an LRU cap and an idle timeout evict live sessions by dropping their
  in-memory :class:`PPDCommandLine` while keeping the record and a small
  journal of graph-mutating commands (``expand``);
* the next request against an evicted session *rehydrates* it — reload
  the record, replay the journal — and, because replay is deterministic,
  every uid, transcript and counter the client sees is unchanged.

All public methods are thread-safe: a manager lock guards the table and
LRU order, a per-session lock serialises command execution (two clients
sharing one session see a consistent interleaving).

The methods that open, load, spill or rehydrate a session import the
debugger (:class:`PPDCommandLine`, the runtime, persist) when they run,
so a daemon loads it with its first session, not before it listens.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..faults import state as _flt
from ..obs import hooks as _obs
from ..perf import ReplayCache, replay_cache
from ..runtime.errors import PersistError

if TYPE_CHECKING:  # pragma: no cover - typing only; the engine loads on demand
    from ..core.cli import PPDCommandLine
    from ..runtime.machine import ExecutionRecord

#: Serialises the daemon's first import of the debugger engine.  Requests
#: run on their own threads, and two sessions opening at once would
#: otherwise import overlapping engine packages from two threads, which
#: can fail ("partially initialized module") or be refused as an import
#: deadlock.
_engine_lock = threading.Lock()


def _load_engine() -> None:
    """Import the engine a session runs on: the command line and the
    session over it (:mod:`repro.core`), persist with the runtime and
    compiler it imports, and the VM that runs and replays programs.

    Every method that opens a session calls this first, so each later
    engine import in this module finds its module loaded."""
    with _engine_lock:
        from .. import vm  # noqa: F401
        from ..core import cli  # noqa: F401
        from ..runtime import persist  # noqa: F401


#: Commands that mutate session state and must be replayed on rehydration.
#: Everything else (flowback, races, rendering) is a pure query over the
#: graph built so far.  ``load`` swaps the whole record and is handled
#: separately; ``save`` only has filesystem side effects and must NOT be
#: replayed.
JOURNALED_COMMANDS = frozenset({"expand"})


class SessionNotFound(KeyError):
    """No session with this id (never opened, or already closed)."""

    def __init__(self, sid: str) -> None:
        super().__init__(sid)
        self.sid = sid

    def __str__(self) -> str:
        return f"no session {self.sid!r} (closed or never opened)"


@dataclass
class _Entry:
    sid: str
    origin: str
    spill_path: str
    cli: Optional[PPDCommandLine]
    journal: list[str] = field(default_factory=list)
    lock: threading.RLock = field(default_factory=threading.RLock)
    created: float = 0.0
    last_used: float = 0.0
    rehydrations: int = 0
    commands: int = 0


def _build_cli(record: ExecutionRecord, cache: Optional[ReplayCache] = None) -> PPDCommandLine:
    """A command line over *record*; deadlocked/odd records that cannot
    autostart fall back to a cold session (same behaviour every time, so
    rehydration stays deterministic)."""
    from ..core.cli import PPDCommandLine

    try:
        return PPDCommandLine(record, cache=cache)
    except (KeyError, ValueError):
        return PPDCommandLine(record, autostart=False, cache=cache)


class SessionManager:
    """Thread-safe map of session id -> live-or-spilled debug session."""

    def __init__(
        self,
        max_live: int = 8,
        idle_timeout_s: Optional[float] = None,
        spool_dir: Optional[str] = None,
        time_fn: Callable[[], float] = time.monotonic,
        cache: Optional[ReplayCache] = None,
    ) -> None:
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        self.max_live = max_live
        self.idle_timeout_s = idle_timeout_s
        #: Shared replay cache (process-wide by default): results are keyed
        #: by record digest, so a rehydrated session's journal replays hit
        #: the entries its pre-eviction incarnation warmed.
        self.replay_cache: ReplayCache = cache if cache is not None else replay_cache()
        self._time = time_fn
        self._owns_spool = spool_dir is None
        self.spool_dir = spool_dir or tempfile.mkdtemp(prefix="ppd-sessions-")
        os.makedirs(self.spool_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._order: list[str] = []  # LRU order, oldest first
        self._next_id = itertools.count(1)

    # ------------------------------------------------------------------
    # Opening sessions
    # ------------------------------------------------------------------

    def open_program(
        self,
        source: str,
        *,
        seed: int = 0,
        inputs: Optional[list[Any]] = None,
    ) -> tuple[str, dict[str, Any]]:
        """Execute *source* (logged mode) and open a session over the run."""
        _load_engine()
        from ..runtime.machine import run_program

        record = run_program(source, seed=seed, inputs=inputs, mode="logged")
        return self._admit(record, origin=f"program(seed={seed})")

    def open_record_json(self, text: str) -> tuple[str, dict[str, Any]]:
        """Open a session over an uploaded persist-record document; the
        verified upload itself becomes the session's spill."""
        _load_engine()
        from ..runtime.persist import record_from_json

        return self._admit(record_from_json(text), origin="upload", text=text)

    def open_record_path(self, path: str) -> tuple[str, dict[str, Any]]:
        """Open a session over a record file on the server's filesystem.
        The file is the client's: a bad one gets a typed answer and is
        left where it is, never renamed aside."""
        _load_engine()
        from ..runtime.persist import load_record

        return self._admit(load_record(path, quarantine=False), origin=path)

    def _admit(
        self, record: ExecutionRecord, origin: str, text: Optional[str] = None
    ) -> tuple[str, dict[str, Any]]:
        """Open a session over *record*, spilling its persisted form:
        *text* when the caller holds the verified document, else a fresh
        serialisation.  Serialising or loading a record names it (the
        persist content digest is the replay-cache key), so starting the
        session serialises nothing more."""
        if text is None:
            from ..runtime.persist import record_to_json

            text = record_to_json(record)
        cli = _build_cli(record, self.replay_cache)
        now = self._time()
        with self._lock:
            sid = f"s{next(self._next_id)}"
            spill_path = os.path.join(self.spool_dir, f"{sid}.ppd.json")
            with open(spill_path, "w") as handle:
                handle.write(text)
            entry = _Entry(
                sid=sid,
                origin=origin,
                spill_path=spill_path,
                cli=cli,
                created=now,
                last_used=now,
            )
            self._entries[sid] = entry
            self._order.append(sid)
            self._evict_overflow()
        if _obs.enabled:
            _obs.on_server_session("open", len(self._entries))
        return sid, self._describe(entry)

    # ------------------------------------------------------------------
    # Using sessions
    # ------------------------------------------------------------------

    def execute(self, sid: str, line: str) -> str:
        """Run one debugger command line in session *sid*.

        Rehydrates the session first if it was evicted; journals commands
        that mutate the dynamic graph so later rehydrations replay them.
        """
        entry = self._touch(sid)
        with entry.lock:
            cli = self._ensure_live(entry)
            output = cli.execute(line)
            entry.commands += 1
            parts = line.strip().split()
            command = parts[0].lower() if parts else ""
            failed = output.startswith(("error:", "unknown command", "usage:"))
            if not failed:
                if command == "load":
                    # The session now debugs a different record: re-spill
                    # it and start the journal over.
                    from ..runtime.persist import record_to_json

                    with open(entry.spill_path, "w") as handle:
                        handle.write(record_to_json(cli.record))
                    entry.journal.clear()
                elif command in JOURNALED_COMMANDS:
                    entry.journal.append(line)
        return output

    def close(self, sid: str) -> None:
        with self._lock:
            entry = self._entries.get(sid)
            if entry is None:
                raise SessionNotFound(sid)
        with entry.lock:  # let an in-flight command finish first
            with self._lock:
                self._entries.pop(sid, None)
                if sid in self._order:
                    self._order.remove(sid)
            try:
                os.unlink(entry.spill_path)
            except OSError:
                pass
            entry.cli = None
        if _obs.enabled:
            _obs.on_server_session("close", len(self._entries))

    def close_all(self) -> None:
        for sid in list(self._entries):
            try:
                self.close(sid)
            except SessionNotFound:
                pass
        if self._owns_spool:
            shutil.rmtree(self.spool_dir, ignore_errors=True)

    def list_info(self) -> list[dict[str, Any]]:
        """JSON-safe summaries of every session, LRU-oldest first."""
        with self._lock:
            entries = [self._entries[sid] for sid in self._order]
        return [self._describe(entry) for entry in entries]

    # ------------------------------------------------------------------
    # Eviction and rehydration
    # ------------------------------------------------------------------

    def is_live(self, sid: str) -> bool:
        with self._lock:
            entry = self._entries.get(sid)
            if entry is None:
                raise SessionNotFound(sid)
            return entry.cli is not None

    def sweep_idle(self) -> int:
        """Evict sessions idle longer than the timeout; returns how many."""
        if self.idle_timeout_s is None:
            return 0
        now = self._time()
        evicted = 0
        with self._lock:
            for entry in list(self._entries.values()):
                if entry.cli is None:
                    continue
                if now - entry.last_used > self.idle_timeout_s:
                    if self._evict(entry):
                        evicted += 1
        return evicted

    def _touch(self, sid: str) -> _Entry:
        self.sweep_idle()
        with self._lock:
            entry = self._entries.get(sid)
            if entry is None:
                raise SessionNotFound(sid)
            entry.last_used = self._time()
            if sid in self._order:
                self._order.remove(sid)
            self._order.append(sid)
            return entry

    def _ensure_live(self, entry: _Entry) -> PPDCommandLine:
        """Rehydrate an evicted session (caller holds ``entry.lock``).

        Rehydration is *atomic*: ``entry.cli`` is assigned only after the
        record loads and the whole journal replays.  Any failure (here
        the injectable ``session.rehydrate`` point, a corrupt spill, an
        evicted file) leaves the entry evicted-but-intact, so the client
        gets a structured error now and a clean retry later — never a
        half-rehydrated session.
        """
        if entry.cli is not None:
            return entry.cli
        try:
            if _flt.active and _flt.fire("session.rehydrate") is not None:
                raise PersistError(
                    "injected rehydrate failure (repro.faults session.rehydrate)"
                )
            from ..runtime.persist import load_record

            record = load_record(entry.spill_path)
            cli = _build_cli(record, self.replay_cache)
            for line in entry.journal:
                cli.execute(line)
        except Exception:
            if _obs.enabled:
                _obs.on_recovery("session.rehydrate_failures")
            raise
        entry.cli = cli
        entry.rehydrations += 1
        if _obs.enabled:
            _obs.on_server_session("rehydrate", len(self._entries))
        with self._lock:
            self._evict_overflow(keep=entry.sid)
        return cli

    def _evict_overflow(self, keep: Optional[str] = None) -> None:
        """Spill LRU sessions until at most ``max_live`` are live (caller
        holds the manager lock).  Busy sessions are skipped — an eviction
        never blocks behind a running command."""
        live = [
            sid
            for sid in self._order
            if self._entries[sid].cli is not None
        ]
        excess = len(live) - self.max_live
        if excess <= 0:
            return
        for sid in live:
            if excess <= 0:
                break
            if sid == keep:
                continue
            if self._evict(self._entries[sid]):
                excess -= 1

    def _evict(self, entry: _Entry) -> bool:
        """Drop the live command line, keeping the spilled record+journal.
        Returns False when the session is mid-command (try again later)."""
        if not entry.lock.acquire(blocking=False):
            return False
        try:
            if entry.cli is None:
                return False
            entry.cli = None
        finally:
            entry.lock.release()
        if _obs.enabled:
            _obs.on_server_session("evict", len(self._entries))
        return True

    # ------------------------------------------------------------------

    def _describe(self, entry: _Entry) -> dict[str, Any]:
        info: dict[str, Any] = {
            "session": entry.sid,
            "origin": entry.origin,
            "live": entry.cli is not None,
            "commands": entry.commands,
            "rehydrations": entry.rehydrations,
            "idle_s": round(self._time() - entry.last_used, 3),
        }
        cli = entry.cli
        if cli is not None:
            info.update(cli.session.describe())
        return info
