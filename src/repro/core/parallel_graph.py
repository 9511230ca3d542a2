"""The parallel dynamic program dependence graph (§6.1, Fig 6.1).

"The parallel dynamic graph is a subset of the dynamic graph that abstracts
out the interactions between processes while hiding the detailed
dependences of local events."

Nodes are synchronization nodes; edges are synchronization edges plus
*internal edges*, each representing the chain of local events between two
consecutive sync nodes of one process (the runtime's :class:`Segment`).
The "+"-ordering of Lamport '78 over this graph orders concurrent events
(§6.3) and underpins race detection (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..runtime.logging import SyncLog
from ..runtime.tracing import Segment, SyncEdgeRec, SyncHistory

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..perf.order_index import OrderIndex


@dataclass
class InternalEdge:
    """A parallel-dynamic-graph internal edge (one executed sync unit)."""

    segment: Segment

    @property
    def pid(self) -> int:
        return self.segment.pid

    @property
    def start_uid(self) -> int:
        return self.segment.start_uid

    @property
    def end_uid(self) -> Optional[int]:
        return self.segment.end_uid

    @property
    def reads(self) -> set[str]:
        return self.segment.reads

    @property
    def writes(self) -> set[str]:
        return self.segment.writes

    @property
    def is_empty(self) -> bool:
        """True for edges "containing zero events" (Fig 6.1's e4)."""
        return self.segment.event_count == 0


@dataclass
class ParallelDynamicGraph:
    """Query interface over a recorded execution's synchronization history."""

    history: SyncHistory
    internal_edges: list[InternalEdge] = field(default_factory=list)

    @classmethod
    def from_history(cls, history: SyncHistory) -> "ParallelDynamicGraph":
        graph = cls(history=history)
        graph.internal_edges = [InternalEdge(seg) for seg in history.segments]
        return graph

    # -- nodes and edges -----------------------------------------------------

    @property
    def sync_nodes(self) -> list[SyncLog]:
        return list(self.history.nodes.values())

    @property
    def sync_edges(self) -> list[SyncEdgeRec]:
        return list(self.history.edges)

    def node(self, uid: int) -> SyncLog:
        return self.history.nodes[uid]

    def nodes_of(self, pid: int) -> list[SyncLog]:
        index = self.__dict__.get("_nodes_by_pid")
        if index is None or self.__dict__.get("_node_index_size") != len(
            self.history.nodes
        ):
            index = {
                p: [self.history.nodes[uid] for uid in uids]
                for p, uids in self.history.per_process.items()
            }
            self._nodes_by_pid = index
            self._node_index_size = len(self.history.nodes)
        return list(index.get(pid, ()))

    def edges_of(self, pid: int) -> list[InternalEdge]:
        index = self.__dict__.get("_edges_by_pid")
        if index is None or self.__dict__.get("_edge_index_size") != len(
            self.internal_edges
        ):
            index = {}
            for edge in self.internal_edges:
                index.setdefault(edge.pid, []).append(edge)
            self._edges_by_pid = index
            self._edge_index_size = len(self.internal_edges)
        return list(index.get(pid, ()))

    def order_index(self) -> "OrderIndex":
        """The (lazily built) ordering index over this graph's history.

        Rebuilt automatically when the history has grown since the index
        was taken — manually assembled test histories mutate in place.
        """
        signature = (len(self.history.nodes), len(self.history.segments))
        index = self.__dict__.get("_order_index")
        if index is None or self.__dict__.get("_order_index_sig") != signature:
            from ..perf.order_index import OrderIndex

            index = OrderIndex(self.history)
            self._order_index = index
            self._order_index_sig = signature
        return index

    # -- ordering (§6.1's "+" operator) ---------------------------------------

    def node_ordered(self, a_uid: int, b_uid: int) -> bool:
        """Reflexive happened-before between two sync nodes."""
        return self.history.node_reaches(a_uid, b_uid)

    def edge_ordered(self, e1: InternalEdge, e2: InternalEdge) -> bool:
        """``e1 -> e2``: true iff ``end(e1) -> start(e2)`` (Def in §6.1)."""
        if e1.end_uid is None:
            return False  # e1 never finished; nothing can follow it
        return self.node_ordered(e1.end_uid, e2.start_uid)

    def simultaneous(self, e1: InternalEdge, e2: InternalEdge) -> bool:
        """Def 6.1: neither edge is ordered before the other."""
        if e1.segment.seg_id == e2.segment.seg_id:
            return False
        return not self.edge_ordered(e1, e2) and not self.edge_ordered(e2, e1)

    # -- event-level ordering ---------------------------------------------------

    def concurrent_pairs(self) -> list[tuple[InternalEdge, InternalEdge]]:
        """All unordered (simultaneous) pairs of internal edges.

        Pair enumeration is quadratic, but each ordering test goes through
        the :meth:`order_index`, so the clock-comparison cost is linear per
        pid pair; race detection proper uses the variable-indexed scans in
        :mod:`repro.core.races`.
        """
        index = self.order_index()
        pairs = []
        edges = self.internal_edges
        for i, e1 in enumerate(edges):
            for e2 in edges[i + 1:]:
                if e1.pid == e2.pid:
                    continue
                if index.simultaneous(e1, e2):
                    pairs.append((e1, e2))
        return pairs

    def ordered_before_timestamp(self, edge: InternalEdge, timestamp: int) -> bool:
        """Did *edge* complete before the given original-run timestamp?

        Used when resolving which process produced a shared value imported
        at a sync-unit boundary (§5.6).
        """
        if edge.end_uid is None:
            return False
        return self.history.nodes[edge.end_uid].timestamp <= timestamp
