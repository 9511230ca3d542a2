"""Higher-level debugger queries over the parallel dynamic graph.

The §6.3 investigation pattern — "assume there exists a shared variable
named SV that is write-accessed in edge e1 and read-accessed in e3 ...
now assume there also exists another write-access in e2" — generalises to
one question: *show me every access to this variable, who made it, in what
order, and which pairs are unordered.*  :func:`access_history` answers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime.tracing import SyncHistory
from .parallel_graph import InternalEdge, ParallelDynamicGraph


@dataclass
class VariableAccess:
    """One internal edge's accesses to the queried variable."""

    edge: InternalEdge
    reads: bool
    writes: bool
    #: (AST node id, var) sites for precise reporting
    sites: tuple[tuple[int, str], ...] = ()
    #: seg_ids of accesses this one is unordered with (possible races when
    #: at least one side writes)
    concurrent_with: frozenset[int] = frozenset()

    @property
    def pid(self) -> int:
        return self.edge.pid

    @property
    def seg_id(self) -> int:
        return self.edge.segment.seg_id

    @property
    def kind(self) -> str:
        if self.reads and self.writes:
            return "read+write"
        return "write" if self.writes else "read"


@dataclass
class AccessHistory:
    """Every access to one shared variable, in observed (timestamp) order.

    The observed order is *one* linearisation; ``concurrent_with`` records
    which other accesses could equally well have gone the other way — the
    unordered pairs of Def 6.1.
    """

    variable: str
    accesses: list[VariableAccess] = field(default_factory=list)

    @property
    def writers(self) -> list[VariableAccess]:
        return [a for a in self.accesses if a.writes]

    @property
    def has_unordered_conflict(self) -> bool:
        """True iff some unordered pair includes a write (a race)."""
        by_id = {a.seg_id: a for a in self.accesses}
        for access in self.accesses:
            for other_id in access.concurrent_with:
                other = by_id[other_id]
                if access.writes or other.writes:
                    return True
        return False

    def describe(self) -> str:
        lines = [f"access history of {self.variable!r} (observed order):"]
        for access in self.accesses:
            concurrent = ""
            if access.concurrent_with:
                ids = ", ".join(f"e{i}" for i in sorted(access.concurrent_with))
                concurrent = f"  [unordered with {ids}]"
            lines.append(
                f"  e{access.seg_id} P{access.pid}: {access.kind}{concurrent}"
            )
        if self.has_unordered_conflict:
            lines.append("  => unordered conflicting accesses: RACE (Def 6.3)")
        elif any(a.concurrent_with for a in self.accesses):
            lines.append("  => unordered accesses exist but none conflict")
        else:
            lines.append("  => all accesses totally ordered")
        return "\n".join(lines)


def access_history(
    history_or_graph: SyncHistory | ParallelDynamicGraph, variable: str
) -> AccessHistory:
    """Collect and order every access to *variable* (§6.3's view).

    Pass the session's graph to reuse its ordering index; each unordered
    pair of accesses is tested once and recorded on both sides.
    """
    graph = (
        history_or_graph
        if isinstance(history_or_graph, ParallelDynamicGraph)
        else ParallelDynamicGraph.from_history(history_or_graph)
    )
    touching = [
        edge
        for edge in graph.internal_edges
        if variable in edge.reads or variable in edge.writes
    ]
    touching.sort(key=lambda e: graph.node(e.start_uid).timestamp)

    index = graph.order_index()
    concurrent: list[set[int]] = [set() for _ in touching]
    for i, edge in enumerate(touching):
        for j in range(i + 1, len(touching)):
            other = touching[j]
            if index.simultaneous(edge, other):
                concurrent[i].add(other.segment.seg_id)
                concurrent[j].add(edge.segment.seg_id)

    result = AccessHistory(variable=variable)
    for edge, unordered in zip(touching, concurrent):
        sites = tuple(
            site
            for site in edge.segment.read_sites + edge.segment.write_sites
            if site[1] == variable
        )[:8]
        result.accesses.append(
            VariableAccess(
                edge=edge,
                reads=variable in edge.reads,
                writes=variable in edge.writes,
                sites=sites,
                concurrent_with=frozenset(unordered),
            )
        )
    return result
