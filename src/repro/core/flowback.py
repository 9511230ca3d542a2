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
        stack = [self]
        while stack:
            step = stack.pop()
            yield step
            stack.extend(reversed(step.children))

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


def _expand(graph: DynamicGraph, event_uid: int, max_depth: int, links) -> FlowbackResult:
    """The tree reached from *event_uid* through ``links(uid)`` (``(uid,
    via)`` pairs), depth-first with its own stack: a query may be as deep
    as the record."""
    visited: set[int] = set()

    def visit(uid: int, via: str, depth: int) -> tuple[FlowbackStep, list]:
        step = FlowbackStep(node=graph.nodes[uid], via=via, depth=depth)
        if uid in visited:
            return step, []  # sharing: do not re-expand
        visited.add(uid)
        next_links = links(uid)
        if depth >= max_depth:
            step.truncated = bool(next_links)
            return step, []
        return step, next_links

    root, root_links = visit(event_uid, "root", 0)
    stack = [(root, iter(root_links))]
    while stack:
        step, pending = stack[-1]
        link = next(pending, None)
        if link is None:
            stack.pop()
            continue
        child, child_links = visit(link[0], link[1], step.depth + 1)
        step.children.append(child)
        if child_links:
            stack.append((child, iter(child_links)))
    return FlowbackResult(root=root, visited=visited)


def flowback(
    graph: DynamicGraph,
    event_uid: int,
    max_depth: int = 12,
    include_control: bool = True,
) -> FlowbackResult:
    """Backward flowback from one event: why does it have its value?"""

    def parents(uid: int) -> list[tuple[int, str]]:
        found = [(edge.src, f"data:{edge.label}") for edge in graph.edges_into(uid, DATA)]
        if include_control:
            for edge in graph.edges_into(uid, CONTROL):
                found.append((edge.src, f"control:{edge.label}"))
        return found

    result = _expand(graph, event_uid, max_depth, parents)
    if _obs.enabled:
        _obs.on_flowback("backward", len(result.visited))
    return result


def flow_forward(
    graph: DynamicGraph,
    event_uid: int,
    max_depth: int = 12,
) -> FlowbackResult:
    """Forward flow: what did this event's value influence?"""

    def children(uid: int) -> list[tuple[int, str]]:
        found = [(edge.dst, f"data:{edge.label}") for edge in graph.edges_from(uid, DATA)]
        for edge in graph.edges_from(uid, CONTROL):
            found.append((edge.dst, f"control:{edge.label}"))
        return found

    result = _expand(graph, event_uid, max_depth, children)
    if _obs.enabled:
        _obs.on_flowback("forward", len(result.visited))
    return result


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
