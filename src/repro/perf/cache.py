"""The shared replay cache (§5.3: "the entire process is repeated as
necessary" — so never repeat the same replay twice).

A :class:`ReplayCache` stores *base-0* :class:`ReplayResult`\\ s — the
events exactly as the emulation package regenerates them with
``uid_base=0`` — keyed by ``(record digest, pid, interval_id)``.
Consumers rebase a private copy to their own uid space
(:meth:`ReplayResult.rebased`), so one cached replay serves any number
of sessions, including a session rehydrated from a persist record: the
reloaded record has a different identity but the same digest, so its
rehydration journal replays against warm entries.

The cache is bounded by total regenerated-event count (an event, not an
entry, is the unit of memory here) with LRU eviction, and is safe to
share across the debug service's request threads.  With ``spill_dir``
set, *every* admitted entry is also pickled to disk at insert time
(write-through), and a miss quietly reloads it — a second-level cache
keyed the same way and a durable replica: point a later process at the
same directory (``PPD_CACHE_DIR`` / ``--cache-dir``) and a cold ``ppd
connect`` on a previously-seen record starts warm — keys are record
digests, so this is content-addressed, not path-addressed.

Spill files are written temp-then-rename (a crash mid-write leaves no
readable garbage behind) and framed with a magic marker plus a SHA-256
content digest, verified on reload: a truncated or bit-flipped spill is
detected, deleted, and treated as an ordinary miss — a corrupt disk can
cost cache warmth, never correctness.  Spill I/O failures (including
those injected by :mod:`repro.faults`' ``cache.spill_io`` point) are
absorbed the same way and surface as ``recovery.cache.*`` counters.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..faults import state as _flt
from ..obs import hooks as _obs

#: Spill-frame header: magic + 32-byte SHA-256 of the pickled payload.
_SPILL_MAGIC = b"PPDSPILL1\n"

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.emulation import ReplayResult
    from ..runtime.machine import ExecutionRecord


def record_digest(record: "ExecutionRecord") -> str:
    """The cache key of an execution record: the first 24 hex characters
    of its persist envelope's content digest.

    Two records with identical persisted form (same program, seed, logs,
    history, stop reason) share replay results — that is what makes the
    cache survive session eviction/rehydration cycles and
    ``save_record``/``load_record`` round trips.  The digest is computed
    once per record, by whichever comes first of a save, a spill, a load
    (which stashes the digest it verified) or this call, and stashed on
    the record (:func:`repro.runtime.persist.record_content_digest`).
    """
    from ..runtime.persist import record_content_digest

    return record_content_digest(record)[:24]


@dataclass
class CacheStats:
    """Counters for one cache instance (see also the ``perf.cache.*``
    observability counters, which aggregate process-wide)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    spills: int = 0
    spill_hits: int = 0
    #: spill writes abandoned on OSError (entry simply not persisted)
    spill_errors: int = 0
    #: corrupt spill files detected on reload, deleted, and re-missed
    spill_bad: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "spills": self.spills,
            "spill_hits": self.spill_hits,
            "spill_errors": self.spill_errors,
            "spill_bad": self.spill_bad,
        }


class ReplayCache:
    """A bounded, thread-safe, LRU replay-result cache.

    ``max_events`` bounds the total ``event_count`` of resident results
    (at least one entry is always kept, so a single oversized replay is
    cacheable).  All methods may be called concurrently.
    """

    def __init__(
        self,
        max_events: int = 200_000,
        spill_dir: Optional[str] = None,
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self.spill_dir = spill_dir
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple[str, int, int], ReplayResult]" = OrderedDict()
        self._resident_events = 0

    # ------------------------------------------------------------------

    @staticmethod
    def key_for(
        record: "ExecutionRecord", pid: int, interval_id: int
    ) -> tuple[str, int, int]:
        return (record_digest(record), pid, interval_id)

    @staticmethod
    def _weight(result: "ReplayResult") -> int:
        return max(1, result.event_count)

    def contains(self, record: "ExecutionRecord", pid: int, interval_id: int) -> bool:
        """Membership probe that does not touch LRU order or stats."""
        key = self.key_for(record, pid, interval_id)
        with self._lock:
            if key in self._entries:
                return True
        return bool(self.spill_dir) and os.path.exists(self._spill_path(key))

    def get(
        self, record: "ExecutionRecord", pid: int, interval_id: int
    ) -> Optional["ReplayResult"]:
        """The cached base-0 replay of one interval, or None on a miss."""
        key = self.key_for(record, pid, interval_id)
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if _obs.enabled:
                    _obs.on_replay_cache("hit")
                return result
        spilled = self._load_spill(key)
        if spilled is not None:
            with self._lock:
                self.stats.hits += 1
                self.stats.spill_hits += 1
                self._insert(key, spilled, from_spill=True)
            if _obs.enabled:
                _obs.on_replay_cache("hit")
                _obs.on_replay_cache("spill_hit")
            return spilled
        with self._lock:
            self.stats.misses += 1
        if _obs.enabled:
            _obs.on_replay_cache("miss")
        return None

    def put(
        self,
        record: "ExecutionRecord",
        pid: int,
        interval_id: int,
        result: "ReplayResult",
    ) -> None:
        """Admit one base-0 replay result (idempotent per key)."""
        key = self.key_for(record, pid, interval_id)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._insert(key, result)

    def clear(self, reset_stats: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self._resident_events = 0
            if reset_stats:
                self.stats = CacheStats()

    def describe(self) -> dict[str, Any]:
        """A JSON-safe snapshot: stats plus residency."""
        with self._lock:
            info: dict[str, Any] = self.stats.as_dict()
            info["entries"] = len(self._entries)
            info["events"] = self._resident_events
            info["max_events"] = self.max_events
            info["spill_dir"] = self.spill_dir or ""
        return info

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Internals (caller holds the lock unless noted)
    # ------------------------------------------------------------------

    def _insert(
        self,
        key: tuple[str, int, int],
        result: "ReplayResult",
        from_spill: bool = False,
    ) -> None:
        self._entries[key] = result
        self._resident_events += self._weight(result)
        if not from_spill:  # an entry loaded from its spill is already on disk
            self._spill(key, result)
        while self._resident_events > self.max_events and len(self._entries) > 1:
            _, old_result = self._entries.popitem(last=False)
            self._resident_events -= self._weight(old_result)
            self.stats.evictions += 1
            if _obs.enabled:
                _obs.on_replay_cache("eviction")
        if _obs.enabled:
            _obs.on_replay_cache_size(len(self._entries), self._resident_events)

    def _spill_path(self, key: tuple[str, int, int]) -> str:
        digest, pid, interval_id = key
        return os.path.join(
            self.spill_dir or "", f"{digest}-p{pid}-i{interval_id}.replay.pkl"
        )

    def _spill(self, key: tuple[str, int, int], result: "ReplayResult") -> None:
        if not self.spill_dir:
            return
        try:
            if _flt.active and _flt.fire("cache.spill_io") is not None:
                raise OSError("injected spill I/O error (repro.faults)")
            os.makedirs(self.spill_dir, exist_ok=True)
            path = self._spill_path(key)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            frame = _SPILL_MAGIC + hashlib.sha256(payload).digest() + payload
            with open(path + ".tmp", "wb") as handle:
                handle.write(frame)
            os.replace(path + ".tmp", path)
        except OSError:
            # Spilling is best-effort; the entry is simply gone — but the
            # degradation is counted, never silent.
            self.stats.spill_errors += 1
            if _obs.enabled:
                _obs.on_recovery("cache.spill_errors")
            return
        self.stats.spills += 1
        if _obs.enabled:
            _obs.on_replay_cache("spill")

    def _load_spill(self, key: tuple[str, int, int]) -> Optional["ReplayResult"]:
        if not self.spill_dir:
            return None
        path = self._spill_path(key)
        try:
            with open(path, "rb") as handle:
                frame = handle.read()
        except OSError:
            return None
        payload = frame[len(_SPILL_MAGIC) + 32 :]
        if (
            not frame.startswith(_SPILL_MAGIC)
            or hashlib.sha256(payload).digest() != frame[len(_SPILL_MAGIC) : len(_SPILL_MAGIC) + 32]
        ):
            self._drop_bad_spill(path)
            return None
        try:
            return pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            self._drop_bad_spill(path)
            return None

    def _drop_bad_spill(self, path: str) -> None:
        """A spill file failed its digest or unpickle: delete it so the
        next miss re-executes instead of re-tripping, and count it."""
        try:
            os.unlink(path)
        except OSError:
            pass
        with self._lock:
            self.stats.spill_bad += 1
        if _obs.enabled:
            _obs.on_recovery("cache.spill_bad")
