"""Deadlock-cause analysis (§6: "The parallel dynamic graph can also help
the user analyze the causes of deadlocks.").

When every live process is blocked, the machine records a
:class:`DeadlockInfo`.  This module reconstructs the *wait-for graph* —
who is waiting for a resource held by whom — finds its cycles, and pairs
each blocked process with its recent synchronization history from the
parallel dynamic graph, which is the paper's recipe for explaining how the
processes got there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..runtime.machine import ExecutionRecord
from .parallel_graph import ParallelDynamicGraph

_REASON_RE = re.compile(r"^(P|lock|recv|send|call|accept)\((\w*)\)$")


@dataclass
class WaitForEdge:
    """Process *waiter* waits for a resource held/serviced by *holder*."""

    waiter: int
    holder: int
    resource: str
    kind: str  # "sem" | "lock" | "chan"


@dataclass
class DeadlockReport:
    """The full deadlock diagnosis presented to the user."""

    blocked: list[tuple[int, str, int]] = field(default_factory=list)
    edges: list[WaitForEdge] = field(default_factory=list)
    #: pids forming a circular wait, in cycle order (empty when the
    #: deadlock is not a simple cycle, e.g. waiting on a channel nobody
    #: will ever send to)
    cycle: list[int] = field(default_factory=list)
    #: pid -> recent sync-node descriptions (path to the deadlock)
    recent_syncs: dict[int, list[str]] = field(default_factory=dict)

    @property
    def is_deadlock(self) -> bool:
        return bool(self.blocked)

    def describe(self) -> str:
        """A human-readable account of the deadlock."""
        if not self.blocked:
            return "no deadlock: some process was still runnable"
        lines = ["DEADLOCK:"]
        for pid, reason, _ in self.blocked:
            lines.append(f"  P{pid} blocked on {reason}")
        for edge in self.edges:
            lines.append(
                f"  P{edge.waiter} waits for {edge.kind} {edge.resource!r} "
                f"held by P{edge.holder}"
            )
        if self.cycle:
            chain = " -> ".join(f"P{pid}" for pid in self.cycle + self.cycle[:1])
            lines.append(f"  circular wait: {chain}")
        for pid, syncs in sorted(self.recent_syncs.items()):
            lines.append(f"  P{pid} sync history: " + ", ".join(syncs[-6:]))
        return "\n".join(lines)


def _find_cycle(edges: list[WaitForEdge]) -> list[int]:
    """The first circular wait a depth-first search meets; the search
    keeps its own stack, since a ring may hold every process."""
    graph: dict[int, list[int]] = {}
    for edge in edges:
        graph.setdefault(edge.waiter, []).append(edge.holder)

    visited: set[int] = set()
    for start in graph:
        if start in visited:
            continue
        visited.add(start)
        path = [start]
        on_path = {start}
        pending = [iter(graph[start])]
        while pending:
            node = next(pending[-1], None)
            if node is None:
                on_path.remove(path.pop())
                pending.pop()
            elif node in on_path:
                return path[path.index(node):]
            elif node not in visited:
                visited.add(node)
                path.append(node)
                on_path.add(node)
                pending.append(iter(graph.get(node, ())))
    return []


def analyze_deadlock(record: ExecutionRecord) -> DeadlockReport:
    """Diagnose the deadlock of a recorded execution (if any)."""
    report = DeadlockReport()
    if record.deadlock is None:
        return report
    report.blocked = list(record.deadlock.blocked)

    state = record.sync_state
    for pid, reason, _node in report.blocked:
        match = _REASON_RE.match(reason)
        if match is None:
            continue
        op, resource = match.groups()
        if op == "P":
            _, holders = state.semaphores.get(resource, (0, []))
            for holder in holders:
                if holder != pid:
                    report.edges.append(
                        WaitForEdge(waiter=pid, holder=holder, resource=resource, kind="sem")
                    )
        elif op == "lock":
            holder = state.locks.get(resource)
            if holder is not None and holder != pid:
                report.edges.append(
                    WaitForEdge(waiter=pid, holder=holder, resource=resource, kind="lock")
                )

    report.cycle = _find_cycle(report.edges)

    graph = ParallelDynamicGraph.from_history(record.history)
    for pid, _reason, _node in report.blocked:
        report.recent_syncs[pid] = [
            f"{node.op}({node.obj})" for node in graph.nodes_of(pid)
        ]
    return report
