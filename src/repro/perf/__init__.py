"""repro.perf — the replay cache and the replay pool.

Replay of a logged e-block interval is deterministic and side-effect
free: everything the original execution got from its environment comes
back out of the log (§5.2), so two replays of the same interval produce
byte-identical event streams no matter where or when they run.  That
determinism is the licence for everything in this package:

* :class:`~repro.perf.cache.ReplayCache` is a bounded, thread-safe LRU
  of replay results keyed by record digest + interval, shared across
  :class:`~repro.core.controller.PPDSession`\\ s and all
  :mod:`repro.server` sessions, optionally written through to a
  directory so later processes start warm.  Sessions and ``ppd replay``
  replay through it (:meth:`~repro.perf.cache.ReplayCache.replay`);
* :class:`~repro.perf.pool.ReplayPool` fans a batch of ``(pid,
  interval_id)`` re-executions out to a process pool (§7: "re-execution
  of e-blocks can exploit the multiprocessor"), with
  :mod:`~repro.perf.shm` and :mod:`~repro.perf.wire` as its transport.
  It did not beat serial replay on a 2-CPU machine (DESIGN §3.10), so
  no session, daemon or ``ppd replay`` uses it; it remains only for the
  end-to-end benchmark's traced phase and experiments E13/E18, which
  measure it.

Benchmark E13 (``benchmarks/bench_e13_parallel_replay.py``) measures
serial vs pooled replay and cold vs warm cache.
"""

from __future__ import annotations

import os
from typing import Optional

from .._lazy import lazy_exports
# Eager: replay_cache() and configure_cache() below read ReplayCache as a
# module global, which a module __getattr__ does not serve.
from .cache import CacheStats, ReplayCache, record_digest

__all__ = [
    "SEGMENT_PREFIX",
    "CacheStats",
    "RecordSegment",
    "ReplayCache",
    "ReplayPool",
    "configure_cache",
    "default_jobs",
    "leaked_segments",
    "record_digest",
    "replay_cache",
    "reset",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "pool": ("ReplayPool", "default_jobs"),
        "shm": ("SEGMENT_PREFIX", "RecordSegment", "leaked_segments"),
    },
)

#: Environment override: a directory for the shared cache's persistent
#: write-through spill.  Content-addressed by record digest, so any
#: number of runs (and ``ppd serve`` daemons) can share one directory.
CACHE_DIR_ENV = "PPD_CACHE_DIR"

#: The process-wide default replay cache.  Created lazily so importing
#: repro.perf costs nothing; replaced by :func:`configure_cache`.
_shared_cache: Optional[ReplayCache] = None


def replay_cache() -> ReplayCache:
    """The shared replay cache used by default across every
    :class:`~repro.core.controller.PPDSession` and debug-service session
    in this process.  Honours ``PPD_CACHE_DIR``: when set, the cache
    writes through to that directory, so a cold process on a
    previously-seen record starts warm."""
    global _shared_cache
    if _shared_cache is None:
        _shared_cache = ReplayCache(spill_dir=os.environ.get(CACHE_DIR_ENV) or None)
    return _shared_cache


def configure_cache(
    max_events: int = 200_000,
    spill_dir: Optional[str] = None,
) -> ReplayCache:
    """Replace the process-wide cache (e.g. to bound it differently, or
    to make it persistent by writing through to ``spill_dir``).  Returns
    the new cache."""
    global _shared_cache
    _shared_cache = ReplayCache(max_events=max_events, spill_dir=spill_dir)
    return _shared_cache


def reset() -> None:
    """Drop every entry and zero the stats of the shared cache.

    :func:`repro.obs.reset` calls this so that instrumented runs always
    measure from a cold start — the BENCH_obs counter snapshot would
    otherwise depend on which records happened to be replayed earlier in
    the same process.
    """
    if _shared_cache is not None:
        _shared_cache.clear(reset_stats=True)
