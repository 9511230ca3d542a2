"""Process-pool e-block re-execution (§7) over a zero-copy transport.

"Re-execution of e-blocks can exploit the multiprocessor itself" — the
debugger runs on the same hardware as the program it debugs, and replay
is deterministic (§5.2), so a batch of interval re-executions can fan
out to worker *processes* (escaping the GIL) and the merged result is
indistinguishable from a serial run.

The dispatch pipeline (DESIGN §3.15):

* **Shared-memory record.**  The :class:`ExecutionRecord` is pickled
  once into a :class:`~repro.perf.shm.RecordSegment`; workers receive
  only the segment *name* and unpickle straight from the mapping.  A
  respawned worker (after ``pool.crash``/``pool.hang`` faults) re-attaches
  the same segment, so recovery never re-serializes the record.  The
  parent owns the segment and guarantees the unlink — on ``close()``, on
  permanent degradation, and via a finalizer.
* **Cost-balanced chunks.**  Intervals are grouped into at most
  ``jobs × 2`` chunks by an LPT greedy packing over per-interval step
  mass (``postlog.steps - prelog.steps``), so one submit amortizes
  dispatch over many e-blocks and no worker is left holding one giant
  interval.
* **Compact results.**  Workers return :mod:`repro.perf.wire` tuples,
  not pickled :class:`ReplayResult` dataclasses; the parent rebuilds the
  results and callers rebase them (:meth:`ReplayResult.rebased`) — which
  is why pooled and serial transcripts stay byte-identical.
* **Adaptive dispatch.**  ``jobs="auto"`` sizes the pool from
  ``os.process_cpu_count()`` and decides serial-vs-pooled *per request*
  from interval step mass and worker warmth, so small expansions never
  pay pool tax; decisions are counted in ``describe()["policy"]``.

Fault tolerance (the self-healing contract, DESIGN §3.13): replay is
deterministic, so *any* worker failure is safely retryable.  A dead or
hung worker (detected by :class:`BrokenExecutor` or the per-future
watchdog ``worker_timeout_s``) tears the executor down and **respawns**
it up to ``max_respawns`` times, sleeping an exponential backoff with
deterministic jitter between attempts; when the respawn budget is
exhausted — or workers cannot be created at all (restricted sandboxes,
no shared memory) — the pool falls back to in-process serial replay
with the same API and byte-identical results.  Every degradation counts a
``perf.pool.fallbacks`` observability event labelled with its cause, and
the cause is surfaced by ``ppd stats cache``; respawns and retries count
under ``recovery.pool.*``.  The ``pool.crash`` / ``pool.hang`` points of
:mod:`repro.faults` inject exactly these failures on demand.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from ..faults import state as _flt
from ..obs import hooks as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.emulation import EmulationPackage, ReplayResult
    from ..runtime.machine import ExecutionRecord
    from .cache import ReplayCache
    from .shm import RecordSegment

#: One emulation package per worker process, built in the initializer.
_WORKER_PACKAGE: Optional["EmulationPackage"] = None

#: Chunk fan-out: enough chunks per worker that LPT packing can balance
#: uneven intervals, few enough that dispatch stays amortized.
_CHUNKS_PER_WORKER = 2

#: Adaptive-policy thresholds (total step mass of the missing intervals).
#: A cold pool must amortize worker spawn + record unpickling; a warm one
#: only the per-chunk dispatch.
_COLD_STEPS = 50_000
_WARM_STEPS = 2_000


def default_jobs() -> int:
    """One worker per CPU actually available to this process.

    Prefers ``os.process_cpu_count()`` (3.13+, affinity-aware and
    container-honest), then the affinity mask, then ``os.cpu_count()``.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        try:
            return max(1, getter() or 1)
        except OSError:  # pragma: no cover - defensive
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _init_worker(segment_name: str) -> None:
    """Pool initializer: attach the parent's segment and unpickle the
    record straight out of the mapping (zero-copy)."""
    global _WORKER_PACKAGE
    from ..core.emulation import EmulationPackage
    from .shm import load_pickled

    _WORKER_PACKAGE = EmulationPackage(load_pickled(segment_name))


def _replay_chunk(
    keys: list[tuple[int, int]],
    overrides: Optional[dict[str, Any]],
    crash: bool = False,
    hang_s: float = 0.0,
) -> tuple[float, list[tuple]]:
    """Replay one chunk of intervals in a worker.

    Returns ``(wall seconds, one wire tuple per key, in chunk order)``.
    ``crash``/``hang_s`` carry parent-side fault-injection decisions into
    the child (the parent decides, so injection stays deterministic no
    matter which worker the chunk lands on).
    """
    if crash:
        os._exit(23)  # simulated worker death (OOM-killer, SIGKILL, ...)
    if hang_s > 0.0:
        time.sleep(hang_s)  # simulated wedged worker
    assert _WORKER_PACKAGE is not None, "worker initializer did not run"
    from .wire import result_to_wire

    started = time.perf_counter()
    wires = [
        result_to_wire(
            _WORKER_PACKAGE.replay(pid, iid, uid_base=0, prelog_overrides=overrides)
        )
        for pid, iid in keys
    ]
    return time.perf_counter() - started, wires


def _compute_interval_cost(record: "ExecutionRecord", pid: int, interval_id: int) -> int:
    """Estimated statement count of replaying one interval.

    Closed intervals: ``postlog.steps - prelog.steps`` (includes nested
    children — a fine property for a dispatch cost, since replaying a
    parent really does re-execute past its children's spans).  Open
    intervals run to the end of the process.
    """
    from ..core.emulation import interval_indexes

    info = interval_indexes(record).get(pid, {}).get(interval_id)
    if info is None:
        return 1
    entries = record.logs[pid].entries
    if info.end_index is not None:
        end_steps = entries[info.end_index].steps
    else:
        end_steps = record.process_steps.get(pid, 0)
    return max(1, end_steps - entries[info.start_index].steps)


class ReplayPool:
    """Fans e-block re-executions of one record out to worker processes.

    Results are always base-0 replays returned in request order; a
    duplicate request inside one batch is executed once and the same
    result object is returned at both positions.  With a ``cache``
    attached, batch replay consults it before executing and feeds every
    fresh result back into it, so a pool shared with a
    :class:`~repro.core.controller.PPDSession` warms that session's
    cache.

    ``jobs`` may be an int, ``None`` (one per available CPU), or
    ``"auto"`` — CPU-sized *and* adaptive: each batch is dispatched
    serial or pooled by step mass (see module docstring).
    """

    def __init__(
        self,
        record: "ExecutionRecord",
        jobs: Union[int, str, None] = None,
        cache: Optional["ReplayCache"] = None,
        max_respawns: int = 2,
        retry_backoff_s: float = 0.05,
        worker_timeout_s: Optional[float] = 60.0,
    ) -> None:
        self.record = record
        self.adaptive = jobs == "auto"
        if self.adaptive or jobs is None:
            self.jobs = default_jobs()
        else:
            self.jobs = max(1, int(jobs))
        self.cache = cache
        #: How many times a dead/hung executor is rebuilt before the pool
        #: permanently degrades to inline replay for this record.
        self.max_respawns = max(0, max_respawns)
        #: Base of the exponential backoff slept between respawns.  The
        #: jitter on top comes from a fixed-seed RNG, so two identical
        #: faulty runs back off identically (determinism over thundering
        #: herds *and* over reproducibility — we get both).
        self.retry_backoff_s = retry_backoff_s
        #: Per-future watchdog: a worker that does not answer within this
        #: budget is treated as dead (None disables the watchdog).
        self.worker_timeout_s = worker_timeout_s
        self._jitter = random.Random(0x5EED)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False
        self._local: Optional["EmulationPackage"] = None
        self._segment: Optional["RecordSegment"] = None
        self._costs: dict[tuple[int, int], int] = {}
        self.batches = 0
        self.chunks = 0
        self.submitted = 0
        self.executed = 0
        self.fallbacks = 0
        self.respawns = 0
        self.bytes_shipped = 0
        self.fallback_causes: dict[str, int] = {}
        self.last_fallback_cause: Optional[str] = None
        self.worker_seconds = 0.0
        #: Adaptive-policy ledger: how each ``_execute`` decided.
        self.policy: dict[str, Any] = {"serial": 0, "pooled": 0, "last": ""}

    # ------------------------------------------------------------------

    def replay(self, pid: int, interval_id: int) -> "ReplayResult":
        """Replay one interval (base 0), through the cache if attached."""
        return self.replay_batch([(pid, interval_id)])[0]

    def replay_batch(
        self,
        requests: Sequence[tuple[int, int]],
        prelog_overrides: Optional[dict[str, Any]] = None,
    ) -> list["ReplayResult"]:
        """Replay a batch of ``(pid, interval_id)`` requests.

        Returns one base-0 :class:`ReplayResult` per request, in request
        order.  ``prelog_overrides`` (what-if replay, §5.7) applies to
        every request in the batch and bypasses the cache.
        """
        started = time.perf_counter()
        requests = [(int(pid), int(interval_id)) for pid, interval_id in requests]
        self.batches += 1
        self.submitted += len(requests)
        chunks_before = self.chunks

        resolved: dict[tuple[int, int], "ReplayResult"] = {}
        use_cache = self.cache is not None and prelog_overrides is None
        missing: list[tuple[int, int]] = []
        for key in dict.fromkeys(requests):  # unique, in first-seen order
            cached = (
                self.cache.get(self.record, *key) if use_cache else None  # type: ignore[union-attr]
            )
            if cached is not None:
                resolved[key] = cached
            else:
                missing.append(key)

        fresh = self._execute(missing, prelog_overrides)
        for key, result in zip(missing, fresh):
            resolved[key] = result
            if use_cache:
                self.cache.put(self.record, key[0], key[1], result)  # type: ignore[union-attr]
        self.executed += len(missing)

        if _obs.enabled:
            _obs.on_replay_pool(
                jobs=self.jobs,
                submitted=len(requests),
                executed=len(missing),
                seconds=time.perf_counter() - started,
                chunks=self.chunks - chunks_before,
            )
        return [resolved[key] for key in requests]

    def interval_cost(self, pid: int, interval_id: int) -> int:
        """Step-mass cost of one interval (memoized per pool)."""
        key = (pid, interval_id)
        cost = self._costs.get(key)
        if cost is None:
            cost = _compute_interval_cost(self.record, pid, interval_id)
            self._costs[key] = cost
        return cost

    # ------------------------------------------------------------------

    def _execute(
        self,
        keys: list[tuple[int, int]],
        overrides: Optional[dict[str, Any]],
    ) -> list["ReplayResult"]:
        """Replay *keys* (unique), parallel when worthwhile, request order.

        Worker death (BrokenExecutor) and worker hangs (the per-future
        watchdog) tear the executor down and retry the whole batch on a
        freshly respawned pool — which re-attaches the *same* shared
        segment — up to ``max_respawns`` times with exponential backoff;
        after that the batch falls back to inline serial replay.  Either
        way the results are byte-identical — replay is deterministic, so
        re-running a batch is always safe.
        """
        if not keys:
            return []
        if not self._want_pool(keys):
            # Intentionally serial — not a degradation, not counted.
            return [self._replay_inline(pid, iid, overrides) for pid, iid in keys]
        attempt = 0
        while True:
            executor = self._ensure_executor()
            if executor is None:
                return self._fallback_inline(keys, overrides, "pool-start-failed")
            try:
                return self._run_parallel(executor, keys, overrides)
            except (BrokenExecutor, FutureTimeout, OSError) as error:
                cause = (
                    "worker-hang"
                    if isinstance(error, FutureTimeout)
                    else "worker-crash"
                )
                self._teardown_executor()
                attempt += 1
                if attempt > self.max_respawns:
                    self._broken = True
                    self._release_segment()
                    return self._fallback_inline(keys, overrides, cause)
                self.respawns += 1
                if _obs.enabled:
                    _obs.on_recovery("pool.respawns")
                    _obs.on_recovery("pool.retries")
                time.sleep(self._backoff(attempt))

    def _want_pool(self, keys: list[tuple[int, int]]) -> bool:
        """Serial or pooled for this request?  Fixed-jobs pools always go
        pooled (given >1 key and >1 worker); adaptive pools weigh the
        step mass against how much dispatch it has to amortize."""
        if self.jobs <= 1 or len(keys) <= 1:
            return False
        if not self.adaptive:
            return True
        mass = sum(self.interval_cost(pid, iid) for pid, iid in keys)
        warm = self._executor is not None
        pooled = mass >= (_WARM_STEPS if warm else _COLD_STEPS)
        self.policy["pooled" if pooled else "serial"] += 1
        self.policy["last"] = "pooled" if pooled else "serial"
        return pooled

    def _chunk(self, keys: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
        """Cost-balanced chunks: LPT greedy over per-interval step mass,
        at most ``jobs × _CHUNKS_PER_WORKER`` bins, request order
        preserved inside each chunk and across the chunk list
        (deterministic)."""
        target = min(len(keys), self.jobs * _CHUNKS_PER_WORKER)
        if target <= 1:
            return [list(keys)]
        costs = [self.interval_cost(pid, iid) for pid, iid in keys]
        order = sorted(range(len(keys)), key=lambda i: (-costs[i], i))
        bins: list[list[int]] = [[] for _ in range(target)]
        loads = [0] * target
        for i in order:
            slot = loads.index(min(loads))
            bins[slot].append(i)
            loads[slot] += costs[i]
        chunks = sorted((sorted(b) for b in bins if b), key=lambda b: b[0])
        return [[keys[i] for i in b] for b in chunks]

    def _run_parallel(
        self,
        executor: ProcessPoolExecutor,
        keys: list[tuple[int, int]],
        overrides: Optional[dict[str, Any]],
    ) -> list["ReplayResult"]:
        from .wire import result_from_wire

        chunks = self._chunk(keys)
        futures = []
        for chunk in chunks:
            crash = hang_s = None
            if _flt.active:
                crash = _flt.fire("pool.crash")
                hang = _flt.fire("pool.hang")
                hang_s = hang.delay_s if hang is not None else None
            futures.append(
                executor.submit(
                    _replay_chunk,
                    chunk,
                    overrides,
                    crash is not None,
                    hang_s or 0.0,
                )
            )
        by_key: dict[tuple[int, int], "ReplayResult"] = {}
        for chunk, future in zip(chunks, futures):  # submit order
            seconds, wires = future.result(timeout=self.worker_timeout_s)
            self.worker_seconds += seconds
            for key, wire in zip(chunk, wires):
                by_key[key] = result_from_wire(wire)
        self.chunks += len(chunks)  # counted only on success
        return [by_key[key] for key in keys]

    def _fallback_inline(
        self,
        keys: list[tuple[int, int]],
        overrides: Optional[dict[str, Any]],
        cause: str,
    ) -> list["ReplayResult"]:
        """Serial replay of the whole batch, with the degradation made
        visible: a counted, cause-labelled fallback (never silent)."""
        self.fallbacks += 1
        self.fallback_causes[cause] = self.fallback_causes.get(cause, 0) + 1
        self.last_fallback_cause = cause
        if _obs.enabled:
            _obs.on_replay_pool_fallback(cause)
        return [self._replay_inline(pid, iid, overrides) for pid, iid in keys]

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (fixed-seed RNG)."""
        base = self.retry_backoff_s * (2 ** (attempt - 1))
        return base + self._jitter.uniform(0.0, self.retry_backoff_s / 2)

    def _replay_inline(
        self, pid: int, interval_id: int, overrides: Optional[dict[str, Any]]
    ) -> "ReplayResult":
        if self._local is None:
            from ..core.emulation import EmulationPackage

            self._local = EmulationPackage(self.record)
        started = time.perf_counter()
        result = self._local.replay(
            pid, interval_id, uid_base=0, prelog_overrides=overrides
        )
        self.worker_seconds += time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Executor + segment lifecycle
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, created on first use over the shared record
        segment; respawns reuse the segment, so recovery never
        re-serializes the record."""
        if self._executor is not None:
            return self._executor
        if self._broken:
            return None
        try:
            if self._segment is None:
                from .shm import RecordSegment

                self._segment = RecordSegment(
                    pickle.dumps(self.record, protocol=pickle.HIGHEST_PROTOCOL)
                )
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self._segment.name,),
            )
        except (OSError, ValueError, pickle.PicklingError, BrokenExecutor):
            # Workers cannot be created at all (restricted sandbox, no
            # shared memory, record not picklable): permanently inline
            # for this pool.
            self._broken = True
            self._teardown_executor()
            self._release_segment()
            return self._executor
        shipped = len(self._segment.name) * self.jobs
        self.bytes_shipped += shipped
        if _obs.enabled:
            _obs.on_pool_shipped(shipped)
        return self._executor

    def _teardown_executor(self) -> None:
        """Stop the executor: its workers are killed, not asked to finish.

        Nothing a torn-down executor's workers hold is wanted, and one
        that never reads its shutdown message (wedged, or stuck in its
        initializer) would block interpreter exit, which joins the
        workers of every executor.  Waiting for the executor's manager
        thread matters to respawns: a worker forked while that thread
        holds the executor's lock inherits the lock held, and deadlocks
        when its garbage collector frees the dead executor, whose weakref
        callback takes that lock.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            # ``shutdown`` drops the process table, so read it first.
            for process in list((executor._processes or {}).values()):
                process.terminate()
            executor.shutdown(wait=True, cancel_futures=True)

    def _release_segment(self) -> None:
        segment, self._segment = self._segment, None
        if segment is not None:
            segment.close()

    # ------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "adaptive": self.adaptive,
            "policy": dict(self.policy),
            "batches": self.batches,
            "chunks": self.chunks,
            "submitted": self.submitted,
            "executed": self.executed,
            "bytes_shipped": self.bytes_shipped,
            "fallbacks": self.fallbacks,
            "fallback_causes": dict(self.fallback_causes),
            "last_fallback_cause": self.last_fallback_cause or "",
            "respawns": self.respawns,
            "worker_seconds": round(self.worker_seconds, 6),
            "parallel": self._executor is not None,
        }

    def close(self) -> None:
        self._teardown_executor()
        self._release_segment()
        self._local = None

    def __enter__(self) -> "ReplayPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
