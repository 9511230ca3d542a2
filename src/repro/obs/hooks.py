"""Instrumentation points threaded through both PPD phases.

Call sites in the runtime and debugger guard every hook with the module
flag::

    from ..obs import hooks as _obs
    ...
    if _obs.enabled:
        _obs.on_sync_event(process.pid, op)

When observability is disabled (the default) the only cost at a hot site
is one attribute load and a truth test — cheap enough that benchmark E1's
plain-vs-logged overhead ratio is unaffected, which the CI smoke job
checks.  When enabled, hooks record into the process-local registry and
trace collector owned by this module.

Counter catalogue (names are a stable API; see README "Observability"):

===============================  ====================================================
``exec.runs``                    completed :class:`Machine` runs
``exec.steps``                   scheduler steps across all runs (+ ``{pid=N}``)
``exec.shared.reads|writes``     shared-memory accesses (§3.2.2 object code)
``exec.sync_events``             synchronization nodes (+ ``{op=P|V|send|...}``)
``sched.preemptions``            quantum-expiry switches between READY processes
``sched.context_switches``       every change of the running process
``log.entries``                  log entries written (+ ``{pid=N,kind=Prelog|...}``)
``log.bytes``                    serialized log bytes (+ ``{pid=N}``) — §3.2 log size
``debug.replays``                e-block replays executed (+ ``{pid=N}``) — §5.2
``debug.replays.cache_hits``     replay requests served from the session cache
``debug.replayed_events``        trace events regenerated on demand (§5.3)
``debug.replayed_steps``         statements re-executed during replays
``debug.subgraph_expansions``    sub-graph nodes expanded (incremental tracing)
``debug.flowback.queries``       flowback/flow-forward walks (+ ``{dir=...}``)
``debug.flowback.nodes``         dynamic-graph nodes visited by those walks
``debug.flowback.seconds``       timer: flowback query latency
``debug.races.scans``            race scans run (+ ``{algo=naive|indexed}``)
``debug.races.pairs_examined``   candidate edge pairs enumerated (§6.3)
``debug.races.pairs_pruned``     pairs skipped via static race candidates
``debug.races.order_checks``     happened-before tests performed
``debug.races.found``            races reported
``analysis.lint.diagnostics``    lint findings reported (+ ``.errors``)
``analysis.effects.programs``    whole-program effect analyses run (``ppd analyze``,
                                 ``ppd disasm --effects``/``--json``)
``analysis.effects.local``       statement spans proven LOCAL (+ ``.shared``,
                                 ``.sync`` for the other lattice points)
``graph.subgraph_extractions``   per-process subgraphs extracted from the
                                 parallel dynamic graph (localization)
``graph.signature_builds``       behavioural signatures canonicalized
``graph.consensus_compares``     process-vs-consensus comparisons ranked
``perf.cache.hits|misses``       shared replay-cache lookups (§5.3 "as necessary")
``perf.cache.evictions``         LRU evictions from the shared replay cache
``perf.cache.spills``            entries written through to the spill directory
``perf.cache.spill_hits``        misses served by reloading a spilled entry
``perf.cache.entries``           gauge: resident cache entries
``perf.cache.events``            gauge: total regenerated events resident
``perf.pool.batches``            replay-pool batches submitted (§7 parallel replay)
``perf.pool.submitted``          replay requests submitted to the pool
``perf.pool.executed``           replays actually executed (not cache-served)
``perf.pool.chunks``             cost-balanced worker chunks dispatched (batching)
``perf.pool.bytes_shipped``      record bytes shipped to workers at pool init —
                                 segment *names*, the zero-copy win
``perf.pool.fallbacks``          pool degradations to in-process serial replay
                                 (+ ``{cause=...}`` naming why)
``perf.pool.seconds``            timer: wall time per replay batch
``perf.shm.created``             shared-memory record segments created
``perf.shm.attached``            worker attaches to a record segment
``perf.shm.unlinked``            segments unlinked (must equal ``created`` at exit)
``perf.shm.bytes``               bytes placed in shared-memory segments
``server.requests``              debug-service requests handled (+ ``{verb=...}``)
``server.request_errors``        requests answered with a structured error
``server.request.seconds``       timer: end-to-end request latency
``server.bytes_in|out``          wire bytes received/sent by the service
``server.connections``           connections accepted (+ ``.active`` gauge,
                                 ``.rejected`` counter on backpressure)
``server.sessions.opened``       debug sessions opened (+ ``.closed``)
``server.active_sessions``       gauge: sessions currently held by the manager
``server.evictions``             live sessions spilled to persist records (LRU/idle)
``server.rehydrations``          evicted sessions rebuilt from their records
``faults.injected``              injected faults fired (+ ``{point=...}``);
                                 provably 0 when :mod:`repro.faults` is inactive
``recovery.actions``             every recovery action taken (sum of the below)
``recovery.pool.respawns``       replay-pool executors respawned after worker death
``recovery.pool.retries``        replay batches retried after a pool failure
``recovery.client.retries``      client requests retried after a retryable error
``recovery.client.reconnects``   client reconnects after mid-request socket death
``recovery.cache.spill_errors``  replay-cache spill writes abandoned on I/O error
``recovery.cache.spill_bad``     corrupt spill files detected, dropped, and re-missed
``recovery.persist.quarantined`` corrupt record files moved aside to ``*.quarantined``
``recovery.session.rehydrate_failures``  rehydrations aborted atomically (no
                                 half-rehydrated session survives)
===============================  ====================================================
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry
from .trace import TraceCollector

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..runtime.machine import ExecutionRecord

#: THE switch.  Hot call sites read this attribute directly; use
#: :func:`repro.obs.enable` / :func:`repro.obs.disable` to flip it.
enabled = False

#: Shared sinks (process-local).  Reset via :func:`repro.obs.reset`.
registry = MetricsRegistry()
tracer = TraceCollector()

#: Monotonic clock for call sites that time around a hook pair.
clock = time.perf_counter


# ----------------------------------------------------------------------
# Execution phase (§3.2.2): machine, scheduler, log files
# ----------------------------------------------------------------------


def on_step(pid: int) -> None:
    """One scheduler step executed by process *pid*."""
    registry.counter("exec.steps").inc()


def on_shared_access(pid: int, name: str, write: bool) -> None:
    """A shared-memory read or write by the object code."""
    registry.counter("exec.shared.writes" if write else "exec.shared.reads").inc()


def on_sync_event(pid: int, op: str) -> None:
    """A synchronization node was added to the history."""
    registry.counter("exec.sync_events").inc()
    registry.counter("exec.sync_events", op=op).inc()


def on_log_entry(pid: int, kind: str, nbytes: int) -> None:
    """A log entry was appended to a process's :class:`LogFile`."""
    registry.counter("log.entries").inc()
    registry.counter("log.entries", pid=pid, kind=kind).inc()
    registry.counter("log.bytes").inc(nbytes)
    registry.counter("log.bytes", pid=pid).inc(nbytes)


def on_run_complete(record: "ExecutionRecord") -> None:
    """Harvest end-of-run totals the machine keeps anyway."""
    registry.counter("exec.runs").inc()
    for pid, steps in record.process_steps.items():
        registry.counter("exec.steps", pid=pid).inc(steps)
    registry.counter("sched.preemptions").inc(record.preemptions)
    registry.counter("sched.context_switches").inc(record.context_switches)
    tracer.emit(
        "exec.run",
        mode=record.mode,
        seed=record.seed,
        steps=record.total_steps,
        processes=len(record.process_names),
        log_entries=record.log_entry_count(),
    )


# ----------------------------------------------------------------------
# Debugging phase (§5): emulation package, controller, queries
# ----------------------------------------------------------------------


def on_replay(pid: int, interval_id: int, events: int, steps: int, halted: bool) -> None:
    """The emulation package replayed one e-block interval (§5.2)."""
    registry.counter("debug.replays").inc()
    registry.counter("debug.replays", pid=pid).inc()
    registry.counter("debug.replayed_events").inc(events)
    registry.counter("debug.replayed_steps").inc(steps)
    tracer.emit(
        "debug.replay", pid=pid, interval=interval_id, events=events, halted=halted
    )


def on_replay_cache_hit(pid: int, interval_id: int) -> None:
    """A session replay request was already materialised."""
    registry.counter("debug.replays.cache_hits").inc()


def on_subgraph_expansion(node_uid: int, interval_id: int) -> None:
    """A sub-graph node was expanded on user demand (§5.3)."""
    registry.counter("debug.subgraph_expansions").inc()


def on_flowback(direction: str, nodes_visited: int) -> None:
    """One flowback/flow-forward walk finished (§4)."""
    registry.counter("debug.flowback.queries").inc()
    registry.counter("debug.flowback.queries", dir=direction).inc()
    registry.counter("debug.flowback.nodes").inc(nodes_visited)


def on_flowback_latency(seconds: float) -> None:
    """End-to-end latency of one controller-level flowback query."""
    registry.timer("debug.flowback.seconds").observe(seconds)


def on_race_scan(
    algo: str, pairs: int, order_checks: int, races: int, pruned: int = 0
) -> None:
    """One race scan over the parallel dynamic graph (§6.3-§6.4)."""
    registry.counter("debug.races.scans").inc()
    registry.counter("debug.races.scans", algo=algo).inc()
    registry.counter("debug.races.pairs_examined").inc(pairs)
    registry.counter("debug.races.pairs_pruned").inc(pruned)
    registry.counter("debug.races.order_checks").inc(order_checks)
    registry.counter("debug.races.found").inc(races)


def on_lint(diagnostics: int, errors: int) -> None:
    """One lint pass over a compiled program (repro.analysis.lint)."""
    registry.counter("analysis.lint.diagnostics").inc(diagnostics)
    registry.counter("analysis.lint.errors").inc(errors)


def on_effects(procs: int, local: int, shared: int, sync: int) -> None:
    """One whole-program effect analysis finished (repro.analysis.effects)."""
    registry.counter("analysis.effects.programs").inc()
    registry.counter("analysis.effects.local").inc(local)
    registry.counter("analysis.effects.shared").inc(shared)
    registry.counter("analysis.effects.sync").inc(sync)
    tracer.emit(
        "analysis.effects", procs=procs, local=local, shared=shared, sync=sync
    )


def on_subgraph_extract(pid: int) -> None:
    """One per-process subgraph extraction (repro.analysis.localize)."""
    registry.counter("graph.subgraph_extractions").inc()


def on_signature_build(pid: int) -> None:
    """One behavioural signature canonicalized from a subgraph."""
    registry.counter("graph.signature_builds").inc()


def on_consensus_compare(pid: int) -> None:
    """One process compared against its peer-group consensus."""
    registry.counter("graph.consensus_compares").inc()


# ----------------------------------------------------------------------
# Parallel replay engine (repro.perf): cache + pool.  The cache is shared
# across server request threads, so these serialise behind a lock too.
# ----------------------------------------------------------------------

_perf_lock = threading.Lock()


def on_replay_cache(event: str) -> None:
    """One shared replay-cache event: hit/miss/eviction/spill/spill_hit."""
    with _perf_lock:
        if event == "hit":
            registry.counter("perf.cache.hits").inc()
        elif event == "miss":
            registry.counter("perf.cache.misses").inc()
        elif event == "eviction":
            registry.counter("perf.cache.evictions").inc()
        elif event == "spill":
            registry.counter("perf.cache.spills").inc()
        elif event == "spill_hit":
            registry.counter("perf.cache.spill_hits").inc()


def on_replay_cache_size(entries: int, events: int) -> None:
    """Residency of the shared replay cache after an insert/eviction."""
    with _perf_lock:
        registry.gauge("perf.cache.entries").set(entries)
        registry.gauge("perf.cache.events").set(events)


def on_replay_pool(
    jobs: int, submitted: int, executed: int, seconds: float, chunks: int = 0
) -> None:
    """One replay-pool batch completed (§7 parallel re-execution)."""
    with _perf_lock:
        registry.counter("perf.pool.batches").inc()
        registry.counter("perf.pool.submitted").inc(submitted)
        registry.counter("perf.pool.executed").inc(executed)
        registry.counter("perf.pool.chunks").inc(chunks)
        registry.timer("perf.pool.seconds").observe(seconds)
    tracer.emit(
        "perf.pool.batch",
        jobs=jobs,
        submitted=submitted,
        executed=executed,
        chunks=chunks,
    )


def on_pool_shipped(nbytes: int) -> None:
    """Record bytes shipped to a fresh executor's workers (pool init or
    respawn): shared-memory segment *names*, a few dozen bytes."""
    with _perf_lock:
        registry.counter("perf.pool.bytes_shipped").inc(nbytes)
    tracer.emit("perf.pool.shipped", nbytes=nbytes)


def on_shm(event: str, nbytes: int = 0) -> None:
    """One shared-memory segment event: created/attached/unlinked."""
    with _perf_lock:
        registry.counter(f"perf.shm.{event}").inc()
        if nbytes and event == "created":
            registry.counter("perf.shm.bytes").inc(nbytes)


def on_replay_pool_fallback(cause: str = "unknown") -> None:
    """The pool degraded to in-process serial replay; *cause* names why
    (``worker-crash``, ``worker-hang``, ``pool-start-failed``, ...)."""
    with _perf_lock:
        registry.counter("perf.pool.fallbacks").inc()
        registry.counter("perf.pool.fallbacks", cause=cause).inc()
    tracer.emit("perf.pool.fallback", cause=cause)


# ----------------------------------------------------------------------
# Fault injection and recovery (repro.faults + the self-healing paths).
# Fired from server handler threads and pool callers alike.
# ----------------------------------------------------------------------

_fault_lock = threading.Lock()


def on_fault_injected(point: str) -> None:
    """A deterministic fault fired at one injection point."""
    with _fault_lock:
        registry.counter("faults.injected").inc()
        registry.counter("faults.injected", point=point).inc()
    tracer.emit("faults.injected", point=point)


def on_recovery(action: str) -> None:
    """The stack took one recovery action (``recovery.<action>``)."""
    with _fault_lock:
        registry.counter("recovery.actions").inc()
        registry.counter(f"recovery.{action}").inc()
    tracer.emit("recovery.action", action=action)


# ----------------------------------------------------------------------
# Debug service (repro.server): the only multi-threaded caller, so these
# hooks serialise registry updates behind one lock.
# ----------------------------------------------------------------------

_server_lock = threading.Lock()


def on_server_request(
    verb: str, seconds: float, ok: bool, bytes_in: int, bytes_out: int
) -> None:
    """One wire request was answered (successfully or with an error reply)."""
    with _server_lock:
        registry.counter("server.requests").inc()
        registry.counter("server.requests", verb=verb).inc()
        if not ok:
            registry.counter("server.request_errors").inc()
        registry.counter("server.bytes_in").inc(bytes_in)
        registry.counter("server.bytes_out").inc(bytes_out)
        registry.timer("server.request.seconds").observe(seconds)


def on_server_connection(event: str, active: int) -> None:
    """A client connection was ``accepted``, ``closed``, or ``rejected``."""
    with _server_lock:
        if event == "accepted":
            registry.counter("server.connections").inc()
        elif event == "rejected":
            registry.counter("server.connections.rejected").inc()
        registry.gauge("server.connections.active").set(active)


def on_server_session(event: str, active: int) -> None:
    """Session-manager lifecycle: open/close/evict/rehydrate."""
    with _server_lock:
        if event == "open":
            registry.counter("server.sessions.opened").inc()
        elif event == "close":
            registry.counter("server.sessions.closed").inc()
        elif event == "evict":
            registry.counter("server.evictions").inc()
        elif event == "rehydrate":
            registry.counter("server.rehydrations").inc()
        registry.gauge("server.active_sessions").set(active)
