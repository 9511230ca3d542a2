"""Vector clocks (Fidge/Mattern) for ordering concurrent events.

The paper orders concurrent events with Lamport's happened-before relation
over synchronization edges (§6, citing Lamport '78).  Vector clocks give a
constant-time test of that partial order, which the race-detection
algorithms (E9) rely on.

Clocks are derived data: a run records only the sync nodes and edges, and
:func:`derive_clocks` computes every node's clock from program order and
those edges, the first time an ordering question asks
(:meth:`repro.runtime.tracing.SyncHistory.clocks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class VectorClock:
    """A grow-on-demand vector clock keyed by process id."""

    counts: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "VectorClock":
        return VectorClock(dict(self.counts))

    def tick(self, pid: int) -> None:
        """Advance this process's own component."""
        self.counts[pid] = self.counts.get(pid, 0) + 1

    def merge(self, other: "VectorClock") -> None:
        """Component-wise max with *other* (receive-side of a sync edge)."""
        for pid, count in other.counts.items():
            if count > self.counts.get(pid, 0):
                self.counts[pid] = count

    def get(self, pid: int) -> int:
        return self.counts.get(pid, 0)

    def leq(self, other: "VectorClock") -> bool:
        """Component-wise ``<=`` (full comparison)."""
        return all(count <= other.counts.get(pid, 0) for pid, count in self.counts.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"P{p}:{c}" for p, c in sorted(self.counts.items()))
        return f"VC({inner})"


def happened_before_or_equal(
    clock_a: VectorClock, pid_a: int, clock_b: VectorClock
) -> bool:
    """True iff event *a* (clock, owning pid) is the same as or happened
    before event *b*.

    Uses the standard O(1) test: ``a -> b`` iff ``a.vc[a.pid] <= b.vc[a.pid]``,
    valid when both clocks were stamped with the tick-then-copy discipline.
    """
    return clock_a.get(pid_a) <= clock_b.get(pid_a)


def derive_clocks(nodes: Iterable, edges: Iterable) -> dict[int, VectorClock]:
    """The vector clock of every sync node, by uid.

    *nodes* carry ``uid`` and ``pid``; *edges* carry ``src_uid`` and
    ``dst_uid``, each source below its destination (a run creates the
    source first; a load checks it).  Visiting the nodes in uid order,
    each node starts from its process's previous clock, takes the
    component-wise max with the clocks of its incoming edges' sources,
    then ticks its own component (Fidge/Mattern's receive rule).
    """
    sources: dict[int, list[int]] = {}
    for edge in edges:
        sources.setdefault(edge.dst_uid, []).append(edge.src_uid)
    clocks: dict[int, VectorClock] = {}
    latest: dict[int, VectorClock] = {}  # pid -> clock of its last node
    for node in sorted(nodes, key=lambda n: n.uid):
        previous = latest.get(node.pid)
        clock = previous.copy() if previous is not None else VectorClock()
        for src in sources.get(node.uid, ()):
            clock.merge(clocks[src])
        clock.tick(node.pid)
        clocks[node.uid] = latest[node.pid] = clock
    return clocks
