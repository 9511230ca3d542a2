"""The parallel dynamic program dependence graph (§6.1, Fig 6.1).

"The parallel dynamic graph is a subset of the dynamic graph that abstracts
out the interactions between processes while hiding the detailed
dependences of local events."

Nodes are synchronization nodes; edges are synchronization edges plus
*internal edges*, each representing the chain of local events between two
consecutive sync nodes of one process — the runtime's :class:`Segment`,
so the internal edges are ``history.segments``.  The "+"-ordering of
Lamport '78 over this graph orders concurrent events (§6.3) and underpins
race detection (§6.4); this module is the one place that answers it, from
the vector clocks the history derives on the first question.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..runtime.clocks import happened_before_or_equal
from ..runtime.logging import SyncLog
from ..runtime.tracing import Segment, SyncHistory


@dataclass
class ParallelDynamicGraph:
    """Query interface over a recorded execution's synchronization history."""

    history: SyncHistory

    @classmethod
    def from_history(cls, history: SyncHistory) -> "ParallelDynamicGraph":
        return cls(history=history)

    # -- nodes and edges -----------------------------------------------------

    def nodes_of(self, pid: int) -> list[SyncLog]:
        nodes = self.history.nodes
        return [nodes[uid] for uid in self.history.per_process.get(pid, ())]

    def edges_of(self, pid: int) -> list[Segment]:
        return list(self._edges_by_pid.get(pid, ()))

    @cached_property
    def _edges_by_pid(self) -> dict[int, list[Segment]]:
        by_pid: dict[int, list[Segment]] = {}
        for segment in self.history.segments:
            by_pid.setdefault(segment.pid, []).append(segment)
        return by_pid

    # -- ordering (§6.1's "+" operator) ---------------------------------------

    def node_ordered(self, a_uid: int, b_uid: int) -> bool:
        """Reflexive happened-before between two sync nodes."""
        clocks = self.history.clocks()
        return happened_before_or_equal(
            clocks[a_uid], self.history.nodes[a_uid].pid, clocks[b_uid]
        )

    def edge_ordered(self, a: Segment, b: Segment) -> bool:
        """``a -> b``: true iff ``end(a) -> start(b)`` (Def in §6.1)."""
        if a.end_uid is None:
            return False  # a never finished; nothing can follow it
        return self.node_ordered(a.end_uid, b.start_uid)

    def simultaneous(self, a: Segment, b: Segment) -> bool:
        """Def 6.1: neither edge is ordered before the other."""
        if a.seg_id == b.seg_id:
            return False
        return not self.edge_ordered(a, b) and not self.edge_ordered(b, a)

    def ordered_before_timestamp(self, edge: Segment, timestamp: int) -> bool:
        """Did *edge* complete before the given original-run timestamp?

        Used when resolving which process produced a shared value imported
        at a sync-unit boundary (§5.6).
        """
        if edge.end_uid is None:
            return False
        return self.history.nodes[edge.end_uid].timestamp <= timestamp
