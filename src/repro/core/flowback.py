"""Flowback analysis queries over the dynamic graph (§1, §4).

"In flowback analysis, the programmer can see, either forward or backward,
how information flowed through the program to produce the events of
interest."

Backward queries walk data- and control-dependence edges from an event of
interest toward the bug; forward queries follow the same edges downstream.
The result is a small DAG (rendered as a tree with sharing) rather than the
whole graph — mirroring the paper's point that only a screen-sized portion
is ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import hooks as _obs
from .dynamic_graph import CONTROL, DATA, SUBGRAPH, DynamicGraph, DynNode


@dataclass
class FlowbackStep:
    """One node in a flowback result, with how we reached it."""

    node: DynNode
    via: str  # "root" | "data:<var>" | "control:<label>"
    depth: int
    children: list["FlowbackStep"] = field(default_factory=list)
    truncated: bool = False  # max depth reached with parents remaining

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, predicate) -> Optional["FlowbackStep"]:
        for step in self.walk():
            if predicate(step):
                return step
        return None


@dataclass
class FlowbackResult:
    """The inverted tree presented to the user (§3.2.3)."""

    root: FlowbackStep
    visited: set[int] = field(default_factory=set)

    def nodes(self) -> list[DynNode]:
        return [step.node for step in self.root.walk()]

    def reaches(self, predicate) -> bool:
        return self.root.find(lambda s: predicate(s.node)) is not None


def flowback(
    graph: DynamicGraph,
    event_uid: int,
    max_depth: int = 12,
    include_control: bool = True,
) -> FlowbackResult:
    """Backward flowback from one event: why does it have its value?"""
    visited: set[int] = set()

    def expand(uid: int, via: str, depth: int) -> FlowbackStep:
        node = graph.nodes[uid]
        step = FlowbackStep(node=node, via=via, depth=depth)
        if uid in visited:
            return step  # sharing: do not re-expand
        visited.add(uid)
        parents: list[tuple[int, str]] = []
        for edge in graph.edges_into(uid, DATA):
            parents.append((edge.src, f"data:{edge.label}"))
        if include_control:
            for edge in graph.edges_into(uid, CONTROL):
                parents.append((edge.src, f"control:{edge.label}"))
        if depth >= max_depth:
            step.truncated = bool(parents)
            return step
        for parent_uid, parent_via in parents:
            step.children.append(expand(parent_uid, parent_via, depth + 1))
        return step

    root = expand(event_uid, "root", 0)
    if _obs.enabled:
        _obs.on_flowback("backward", len(visited))
    return FlowbackResult(root=root, visited=visited)


def flow_forward(
    graph: DynamicGraph,
    event_uid: int,
    max_depth: int = 12,
) -> FlowbackResult:
    """Forward flow: what did this event's value influence?"""
    visited: set[int] = set()

    def expand(uid: int, via: str, depth: int) -> FlowbackStep:
        node = graph.nodes[uid]
        step = FlowbackStep(node=node, via=via, depth=depth)
        if uid in visited:
            return step
        visited.add(uid)
        children: list[tuple[int, str]] = []
        for edge in graph.edges_from(uid, DATA):
            children.append((edge.dst, f"data:{edge.label}"))
        for edge in graph.edges_from(uid, CONTROL):
            children.append((edge.dst, f"control:{edge.label}"))
        if depth >= max_depth:
            step.truncated = bool(children)
            return step
        for child_uid, child_via in children:
            step.children.append(expand(child_uid, child_via, depth + 1))
        return step

    root = expand(event_uid, "root", 0)
    if _obs.enabled:
        _obs.on_flowback("forward", len(visited))
    return FlowbackResult(root=root, visited=visited)


def subgraph_frontier(result: FlowbackResult, graph: DynamicGraph) -> list[DynNode]:
    """The unexpanded sub-graph nodes a flowback result ran into, in walk
    order — the nodes the next expansion round expands."""
    frontier: list[DynNode] = []
    seen: set[int] = set()
    for step in result.root.walk():
        node = step.node
        if (
            node.kind == SUBGRAPH
            and node.interval_id is not None
            and node.uid not in graph.expansions
            and node.uid not in seen
        ):
            seen.add(node.uid)
            frontier.append(node)
    return frontier


def last_assignment(graph: DynamicGraph, var: str, pid: int | None = None) -> Optional[DynNode]:
    """The most recent assignment to *var* in the graph so far."""
    assignments = graph.find_assignments(var, pid)
    return assignments[-1] if assignments else None


def why_value(
    graph: DynamicGraph, var: str, pid: int | None = None, max_depth: int = 12
) -> Optional[FlowbackResult]:
    """Flowback from the last assignment of *var* — "why is it this value?"."""
    node = last_assignment(graph, var, pid)
    if node is None:
        return None
    return flowback(graph, node.uid, max_depth=max_depth)


def slice_statements(result: FlowbackResult) -> list[str]:
    """The dynamic slice as statement labels, in source order (Weiser-style
    view of the flowback tree — the related work the paper cites)."""
    labels = {
        step.node.stmt_label
        for step in result.root.walk()
        if step.node.stmt_label
    }
    return sorted(labels, key=lambda s: int(s[1:]) if s[1:].isdigit() else 0)
