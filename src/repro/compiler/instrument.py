"""The instrumentation plan: where the object code logs, and what (§3.2.1).

The paper's Compiler/Linker emits object code whose only debugging cost is
log generation at e-block boundaries plus sync-unit prelogs for shared
variables.  Our "object code" is the bytecode VM plus this plan; the plan
is the complete description of the inserted logging:

* procedure e-blocks: prelog (args + shared REF) at entry, postlog
  (shared MOD + return value) at exit;
* loop e-blocks: prelog/postlog around the loop with the loop's
  USED/DEFINED local and shared sets;
* sync-unit prelogs (§5.5): after every statement that starts a
  synchronization unit, snapshot the shared variables the unit may read;
* procedure-entry units: the same snapshot at procedure entry;
* inputs: ``input()``/``rand()``/``recv`` values are always logged (they
  are the external nondeterminism replay must reproduce).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.simplified import N_ENTRY, SimplifiedGraph
from .eblocks import EBlock, EBlockSet, sorted_names


@dataclass
class InstrumentationPlan:
    """Everything the runtime needs to emit logs (and replay them)."""

    eblocks: EBlockSet = None  # type: ignore[assignment]
    #: stmt node_id -> shared variables to snapshot after that statement
    #: completes (the statement starts a synchronization unit), sorted
    post_stmt_prelogs: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: proc name -> shared variables to snapshot at procedure entry, sorted
    entry_unit_prelogs: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def proc_block(self, proc_name: str) -> EBlock | None:
        return self.eblocks.proc_blocks.get(proc_name)

    def loop_block(self, loop_node_id: int) -> EBlock | None:
        return self.eblocks.loop_blocks.get(loop_node_id)

    def chunk_groups(self, proc_name: str):
        """The §5.4 split plan for a large procedure (None = unsplit)."""
        return self.eblocks.chunk_plan.get(proc_name)

    def is_merged(self, proc_name: str) -> bool:
        return proc_name in self.eblocks.merged_procs

    def logging_site_count(self) -> int:
        """Number of static logging sites (a cheap instrumentation metric)."""
        return (
            2 * len(self.eblocks.blocks)
            + len([v for v in self.post_stmt_prelogs.values() if v])
            + len([v for v in self.entry_unit_prelogs.values() if v])
        )


def build_instrumentation_plan(
    eblocks: EBlockSet, simplified: dict[str, SimplifiedGraph]
) -> InstrumentationPlan:
    """Derive the logging plan from the e-blocks and the sync units."""
    plan = InstrumentationPlan(eblocks=eblocks)

    for proc_name, graph in simplified.items():
        for unit in graph.units:
            start_kind = graph.node_kinds[unit.start_node]
            if start_kind == N_ENTRY:
                if unit.shared_reads:
                    plan.entry_unit_prelogs[proc_name] = sorted_names(unit.shared_reads)
                continue
            stmt = graph.cfg.nodes[unit.start_node].stmt
            if stmt is None:
                continue
            if not unit.shared_reads:
                continue
            existing = plan.post_stmt_prelogs.get(stmt.node_id, ())
            plan.post_stmt_prelogs[stmt.node_id] = sorted_names({*existing, *unit.shared_reads})
    return plan
