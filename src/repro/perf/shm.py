"""Shared-memory record transport for the replay pool (zero-copy, §7).

The parent pickles the :class:`ExecutionRecord` **once** into one
:mod:`multiprocessing.shared_memory` segment and ships only the segment
*name* to each worker; each worker maps the segment and unpickles
straight out of the mapping (``pickle.loads`` reads from the
``memoryview`` without an intermediate copy).  A respawned worker
re-attaches the same segment by name, so recovery after
``pool.crash``/``pool.hang`` faults costs no record re-serialization
either.

Lifecycle: the creating process owns the segment.  :meth:`RecordSegment
.close` is idempotent and always unlinks, and a :func:`weakref.finalize`
guarantees the unlink even when ``close()`` is never reached (dropped
reference, interpreter exit) — ``/dev/shm`` must end every run exactly
as it started, which :func:`leaked_segments` lets tests and the chaos
gate assert.  Workers attach *untracked* (no resource-tracker
registration), so a worker exiting — or being killed by an injected
fault — never unlinks a segment it does not own.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import weakref
from typing import Any

from ..obs import hooks as _obs

__all__ = [
    "SEGMENT_PREFIX",
    "RecordSegment",
    "attach_segment",
    "leaked_segments",
    "load_pickled",
]

#: Every segment this package creates carries this name prefix, so leak
#: probes can scan ``/dev/shm`` without guessing.
SEGMENT_PREFIX = "ppd-shm-"

#: Payload framing: the mapped size is page-rounded by the kernel, so an
#: 8-byte little-endian length header recovers the exact pickle extent.
_HEADER = struct.Struct("<Q")

_segment_ids = itertools.count()


def _destroy(shm: Any, nbytes: int) -> None:
    """Unmap and unlink one owned segment (module-level so the finalizer
    never keeps the :class:`RecordSegment` itself alive)."""
    try:
        shm.close()
    except OSError:  # pragma: no cover - already unmapped
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        return
    if _obs.enabled:
        _obs.on_shm("unlinked", nbytes)


class RecordSegment:
    """A parent-owned shared-memory segment holding one pickled payload.

    Layout is ``<Q payload-length><payload bytes>``.  The segment name
    (``ppd-shm-<pid>-<n>``) is the only thing that ever crosses a process
    boundary; workers read the payload with :func:`load_pickled`.
    """

    def __init__(self, payload: bytes) -> None:
        from multiprocessing import shared_memory

        base = f"{SEGMENT_PREFIX}{os.getpid()}-{next(_segment_ids)}"
        size = _HEADER.size + len(payload)
        name, attempt = base, 0
        while True:
            try:
                self._shm = shared_memory.SharedMemory(name=name, create=True, size=size)
                break
            except FileExistsError:
                # A stale segment from a crashed earlier run; pick a new name.
                attempt += 1
                if attempt > 64:
                    raise
                name = f"{base}x{attempt}"
        self.name = self._shm.name.lstrip("/")
        self.nbytes = size
        _HEADER.pack_into(self._shm.buf, 0, len(payload))
        self._shm.buf[_HEADER.size : size] = payload
        self._finalizer = weakref.finalize(self, _destroy, self._shm, size)
        if _obs.enabled:
            _obs.on_shm("created", size)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unmap and unlink (idempotent; the finalizer backstops it)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "RecordSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_segment(name: str) -> Any:
    """Attach an existing segment **without** resource-tracker ownership.

    Python 3.13 has ``track=False`` for exactly this; on 3.11/3.12 the
    tracker registers every attach and would unlink the segment when the
    *worker* exits, yanking it out from under its siblings (and spewing
    leak warnings for segments the parent cleans up itself).  Suppressing
    the registration call itself — rather than unregistering afterwards —
    matters: the tracker's cache is a *set*, so N workers registering the
    same name collapse to one entry and N-1 unregisters would underflow
    it (KeyError tracebacks in the tracker process).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python <= 3.12 path
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def load_pickled(name: str) -> Any:
    """Unpickle the payload of segment *name* straight from the mapping.

    ``pickle.loads`` consumes the sliced ``memoryview`` in place — the
    record bytes are never copied into worker-private memory, which is
    the zero-copy half of the transport.  The mapping is released before
    returning; the worker keeps only the unpickled object.
    """
    seg = attach_segment(name)
    try:
        buf = seg.buf
        (length,) = _HEADER.unpack_from(buf, 0)
        payload = buf[_HEADER.size : _HEADER.size + length]
        try:
            obj = pickle.loads(payload)
        finally:
            payload.release()
    finally:
        seg.close()
    if _obs.enabled:
        _obs.on_shm("attached", 0)
    return obj


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of ppd shared-memory segments still present in ``/dev/shm``.

    The invariant everywhere (pool close, permanent degradation, worker
    crash/hang respawn, interpreter exit) is that this returns ``[]``.
    """
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:  # pragma: no cover - no POSIX shm mount
        return []
