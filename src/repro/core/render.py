"""Text and DOT rendering of the four PPD graphs.

The paper's figures are regenerated through these renderers:

* :func:`render_dynamic_fragment` — Fig 4.1 style dynamic-graph fragments;
* :func:`render_simplified` — Fig 5.3 style simplified static graphs;
* :func:`render_parallel` — Fig 6.1 style parallel dynamic graphs;
* :func:`render_flowback` — the inverted tree the Controller presents.
"""

from __future__ import annotations

from ..analysis.simplified import SimplifiedGraph
from ..runtime.tracing import SyncHistory
from .dynamic_graph import DynamicGraph
from .flowback import FlowbackResult, FlowbackStep


def render_flowback(result: FlowbackResult, show_values: bool = True) -> str:
    """The flowback tree as indented text (what the user reads)."""
    lines: list[str] = []
    stack: list[tuple[FlowbackStep, str, bool]] = [(result.root, "", True)]
    while stack:
        step, prefix, is_last = stack.pop()
        connector = "" if step.via == "root" else ("`- " if is_last else "|- ")
        via = "" if step.via == "root" else f"[{step.via}] "
        value = ""
        if show_values and step.node.value is not None:
            value = f" = {step.node.value}"
        suffix = " ..." if step.truncated else ""
        lines.append(f"{prefix}{connector}{via}{step.node.label}{value}{suffix}")
        child_prefix = prefix if step.via == "root" else prefix + ("   " if is_last else "|  ")
        last = len(step.children) - 1
        for index in range(last, -1, -1):
            stack.append((step.children[index], child_prefix, index == last))
    return "\n".join(lines)


def render_dynamic_fragment(
    graph: DynamicGraph, uids: list[int] | None = None
) -> str:
    """A dynamic-graph fragment as text: nodes then typed edges."""
    nodes = (
        [graph.nodes[uid] for uid in uids if uid in graph.nodes]
        if uids is not None
        else sorted(graph.nodes.values(), key=lambda n: n.uid)
    )
    chosen = {node.uid for node in nodes}
    lines = ["dynamic graph fragment:"]
    for node in nodes:
        value = f" = {node.value}" if node.value is not None else ""
        lines.append(f"  [{node.kind}] #{node.uid} {node.label}{value} (P{node.pid})")
    for edge in graph.edges:
        if edge.src in chosen and edge.dst in chosen:
            label = f" ({edge.label})" if edge.label else ""
            lines.append(f"  #{edge.src} -{edge.kind}-> #{edge.dst}{label}")
    return "\n".join(lines)


def dynamic_to_dot(graph: DynamicGraph, uids: list[int] | None = None) -> str:
    """Graphviz DOT for a dynamic-graph fragment (Fig 4.1 look)."""
    nodes = (
        [graph.nodes[uid] for uid in uids if uid in graph.nodes]
        if uids is not None
        else sorted(graph.nodes.values(), key=lambda n: n.uid)
    )
    chosen = {node.uid for node in nodes}
    shape = {
        "subgraph": "box",
        "param": "ellipse",
        "entry": "diamond",
        "exit": "diamond",
        "extern": "hexagon",
        "initial": "plaintext",
    }
    style = {
        "data": "solid",
        "control": "dashed",
        "flow": "dotted",
        "sync": "bold",
    }
    lines = ["digraph dynamic {", "  rankdir=BT;"]
    for node in nodes:
        node_shape = shape.get(node.kind, "ellipse")
        label = node.label.replace('"', "'")
        lines.append(f'  n{node.uid} [label="{label}" shape={node_shape}];')
    for edge in graph.edges:
        if edge.src in chosen and edge.dst in chosen:
            edge_style = style.get(edge.kind, "solid")
            label = f' label="{edge.label}"' if edge.label else ""
            lines.append(f"  n{edge.src} -> n{edge.dst} [style={edge_style}{label}];")
    lines.append("}")
    return "\n".join(lines)


def render_simplified(graph: SimplifiedGraph) -> str:
    """A simplified static graph as text (Fig 5.3 style)."""
    lines = [f"simplified static graph of {graph.proc_name}:"]
    for node_id, kind in sorted(graph.node_kinds.items()):
        cfg_node = graph.cfg.nodes[node_id]
        lines.append(f"  [{kind}] {cfg_node.label}")
    for edge in graph.edges:
        src = graph.cfg.nodes[edge.src].label
        dst = graph.cfg.nodes[edge.dst].label
        branch = f" [{edge.branch_label}]" if edge.branch_label else ""
        covered = f" ({len(edge.covered)} stmts)" if edge.covered else ""
        lines.append(f"  {edge.name}: {src} ->{branch} {dst}{covered}")
    for unit in graph.units:
        start = graph.cfg.nodes[unit.start_node].label
        edges = ", ".join(f"e{e}" for e in sorted(unit.edges))
        lines.append(
            f"  unit {unit.unit_id} @ {start}: {{{edges}}} "
            f"reads={sorted(unit.shared_reads)} writes={sorted(unit.shared_writes)}"
        )
    return "\n".join(lines)


def render_parallel(history: SyncHistory, process_names: dict[int, str] | None = None) -> str:
    """A parallel dynamic graph as text (Fig 6.1 style): per-process sync
    node columns, internal edges with READ/WRITE sets, and sync edges."""
    names = process_names or {}
    clocks = history.clocks()
    lines = ["parallel dynamic graph:"]
    for pid in sorted(history.per_process):
        title = names.get(pid, f"proc{pid}")
        lines.append(f"  P{pid} ({title}):")
        for uid in history.per_process[pid]:
            node = history.nodes[uid]
            lines.append(f"    n{uid}: {node.op}({node.obj}) vc={clocks[uid]}")
    for seg in history.segments:
        end = f"n{seg.end_uid}" if seg.end_uid is not None else "(open)"
        annot = ""
        if seg.reads or seg.writes:
            annot = f" R={sorted(seg.reads)} W={sorted(seg.writes)}"
        empty = " [zero events]" if seg.event_count == 0 else ""
        lines.append(
            f"  internal e{seg.seg_id} (P{seg.pid}): "
            f"n{seg.start_uid} -> {end}{annot}{empty}"
        )
    for edge in history.edges:
        lines.append(f"  sync: n{edge.src_uid} -> n{edge.dst_uid} [{edge.label}]")
    return "\n".join(lines)


def parallel_to_dot(history: SyncHistory) -> str:
    """Graphviz DOT for the parallel dynamic graph (Fig 6.1 look)."""
    lines = ["digraph parallel {", "  rankdir=TB;"]
    for pid in sorted(history.per_process):
        lines.append(f"  subgraph cluster_p{pid} {{")
        lines.append(f'    label="P{pid}";')
        for uid in history.per_process[pid]:
            node = history.nodes[uid]
            lines.append(f'    n{uid} [label="{node.op}({node.obj})"];')
        lines.append("  }")
    for seg in history.segments:
        if seg.end_uid is not None:
            annot = ""
            if seg.reads or seg.writes:
                annot = f"R={sorted(seg.reads)} W={sorted(seg.writes)}"
            lines.append(
                f'  n{seg.start_uid} -> n{seg.end_uid} [style=solid label="{annot}"];'
            )
    for edge in history.edges:
        lines.append(f'  n{edge.src_uid} -> n{edge.dst_uid} [style=dashed label="{edge.label}"];')
    lines.append("}")
    return "\n".join(lines)
