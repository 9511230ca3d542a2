"""The full-tracing baseline (§2's trace-based debugging, Balzer's EXDAMS).

"Either the user has to generate a trace of every event so that the traces
will not lack anything important when an error is detected, or the user has
to re-execute a modified program ..." — this module is the first option:
run the program with every event traced, and build the complete dynamic
graph up front.  Benchmark E2 compares its time and space cost against
incremental tracing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..compiler.compile import CompiledProgram
from ..core.dynamic_graph import DynamicGraph, DynamicGraphBuilder
from ..runtime.machine import ExecutionRecord, Machine


@dataclass
class FullTraceSession:
    """A debugging session where everything was traced during execution."""

    record: ExecutionRecord
    graph: DynamicGraph

    @property
    def trace_bytes(self) -> int:
        assert self.record.tracer is not None
        return self.record.tracer.byte_size()

    @property
    def event_count(self) -> int:
        assert self.record.tracer is not None
        return len(self.record.tracer.events)


def run_with_full_trace(
    compiled: CompiledProgram,
    *,
    seed: int = 0,
    inputs: Optional[list] = None,
    max_steps: int = 2_000_000,
    build_graph: bool = True,
) -> FullTraceSession:
    """Execute with every event traced; optionally build the whole graph."""
    machine = Machine(
        compiled, seed=seed, mode="plain", trace=True, inputs=inputs, max_steps=max_steps
    )
    record = machine.run()
    assert record.tracer is not None
    if build_graph:
        builder = DynamicGraphBuilder(compiled.cfgs, compiled.database)
        builder.add_events(record.tracer.events)
        builder.add_sync_edges(record.history, record.trace_of_sync)
        graph = builder.graph
    else:
        graph = DynamicGraph()
    return FullTraceSession(record=record, graph=graph)
