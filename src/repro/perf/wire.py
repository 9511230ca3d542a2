"""Compact wire encoding of replay results (pool ⇄ worker transport).

Like the pool, it remains only for the end-to-end benchmark's traced
phase and experiments E13/E18.

A :class:`~repro.core.emulation.ReplayResult` is a dataclass holding a
list of :class:`~repro.runtime.tracing.TraceEvent` dataclasses; pickling
it ships per-class metadata and attribute dictionaries for every event.
Workers instead flatten results into nested **plain tuples** — pickle's
cheapest aggregate, one opcode per element, no class references — and
the parent rebuilds real objects on receipt.  On the replay-heavy
workloads this roughly halves the result bytes crossing the pipe (the
``perf.pool.bytes_shipped`` counter makes the difference visible).

The codec is exhaustive and positional: every field of ``TraceEvent``,
``ExternInfo`` and ``ReplayResult`` appears at a fixed tuple index, and
``result_from_wire(result_to_wire(r))`` reconstructs ``r`` exactly
(equality over all fields), which the wire tests assert for every
interval of every workload.  Values (``value``, ``arg_values``,
``retval``, ``final_*``) still pickle as themselves — they are already
plain python data (ints, floats, lists, PCL arrays-as-lists).
"""

from __future__ import annotations

from ..core.emulation import ExternInfo, ReplayResult
from ..runtime.tracing import TraceEvent

__all__ = ["result_from_wire", "result_to_wire"]


def _event_to_wire(e: TraceEvent) -> tuple:
    return (
        e.uid,
        e.pid,
        e.kind,
        e.node_id,
        e.proc,
        e.stmt_label,
        e.var,
        e.value,
        tuple(e.reads),
        tuple(tuple(row) for row in e.arg_reads),
        tuple(e.arg_values),
        e.label,
        e.call_uid,
        e.frame_uid,
        e.interval_id,
    )


def _event_from_wire(w: tuple) -> TraceEvent:
    return TraceEvent(
        uid=w[0],
        pid=w[1],
        kind=w[2],
        node_id=w[3],
        proc=w[4],
        stmt_label=w[5],
        var=w[6],
        value=w[7],
        reads=[tuple(r) for r in w[8]],
        arg_reads=[[tuple(r) for r in row] for row in w[9]],
        arg_values=list(w[10]),
        label=w[11],
        call_uid=w[12],
        frame_uid=w[13],
        interval_id=w[14],
    )


def result_to_wire(result: ReplayResult) -> tuple:
    """Flatten one base-0 replay result into nested plain tuples."""
    return (
        result.pid,
        result.interval_id,
        tuple(_event_to_wire(e) for e in result.events),
        tuple(result.output),
        result.halted,
        result.failure_message,
        tuple(result.diagnostics),
        tuple(
            (i.event_uid, i.var, i.value, i.site_node_id, i.timestamp)
            for i in result.externs
        ),
        tuple(result.subgraph_intervals.items()),
        tuple(result.trace_of_sync.items()),
        result.retval,
        tuple(result.final_shared.items()),
        tuple(result.final_locals.items()),
    )


def result_from_wire(w: tuple) -> ReplayResult:
    """Rebuild the :class:`ReplayResult` a worker flattened."""
    return ReplayResult(
        pid=w[0],
        interval_id=w[1],
        events=[_event_from_wire(e) for e in w[2]],
        output=list(w[3]),
        halted=w[4],
        failure_message=w[5],
        diagnostics=list(w[6]),
        externs=[ExternInfo(*i) for i in w[7]],
        subgraph_intervals=dict(w[8]),
        trace_of_sync=dict(w[9]),
        retval=w[10],
        final_shared=dict(w[11]),
        final_locals=dict(w[12]),
    )
