"""The dynamic program dependence graph (§4.2, Fig 4.1).

Built from trace events (either a full trace or the fragments the emulation
package regenerates on demand).  Node types follow the paper: ENTRY/EXIT,
*singular* nodes (assignments and control predicates), and *sub-graph*
nodes (procedure executions, shown collapsed until the user expands them).
Edge types: flow, data dependence, control dependence, synchronization.

Parameter passing uses the paper's ``%`` convention: ``%1``..``%n`` name the
actual parameters and ``%0`` the returned value; an actual that is an
expression rather than a single variable gets a *fictional* singular node
(the ``%3`` node of Fig 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..analysis.cfg import CFG
from ..analysis.database import ProgramDatabase
from ..runtime.tracing import (
    EV_ASSERT,
    EV_CALL,
    EV_ENTER,
    EV_EXTERN,
    EV_INPUT,
    EV_PRED,
    EV_PRINT,
    EV_RET,
    EV_STMT,
    EV_SUBGRAPH,
    TraceEvent,
)

# Node kinds.
ENTRY = "entry"
EXIT = "exit"
SINGULAR = "singular"
SUBGRAPH = "subgraph"
PARAM = "param"  # fictional %n node for expression actuals
EXTERN = "extern"  # shared value imported from another process (replay)
INITIAL = "initial"  # a variable's value at program start
SYNC = "sync"
OTHER = "other"

# Edge kinds (§4.2).
FLOW = "flow"
DATA = "data"
CONTROL = "control"
SYNC_EDGE = "sync"


@dataclass
class DynNode:
    """One node of the dynamic graph."""

    uid: int
    kind: str
    label: str
    pid: int = -1
    proc: str = ""
    node_id: int = 0  # AST node id
    stmt_label: str = ""
    value: Any = None
    #: for SUBGRAPH nodes: the log interval that would expand this node
    #: (None when the callee ran inline and is already in the trace)
    interval_id: Optional[int] = None
    #: for SUBGRAPH nodes expanded inline: the span of interior event uids
    span: Optional[tuple[int, int]] = None


@dataclass
class DynEdge:
    """One edge of the dynamic graph."""

    src: int
    dst: int
    kind: str
    label: str = ""  # variable name for data edges, branch for control edges


@dataclass
class DynamicGraph:
    """The dynamic program dependence graph, built incrementally."""

    nodes: dict[int, DynNode] = field(default_factory=dict)
    edges: list[DynEdge] = field(default_factory=list)
    _edges_into: dict[int, list[DynEdge]] = field(default_factory=dict)
    _edges_from: dict[int, list[DynEdge]] = field(default_factory=dict)
    #: subgraph node uid -> uids of the interior events (when expanded)
    expansions: dict[int, list[int]] = field(default_factory=dict)

    def add_node(self, node: DynNode) -> DynNode:
        self.nodes[node.uid] = node
        return node

    def add_edge(self, src: int, dst: int, kind: str, label: str = "") -> None:
        if src == dst or src not in self.nodes or dst not in self.nodes:
            return
        edge = DynEdge(src=src, dst=dst, kind=kind, label=label)
        self.edges.append(edge)
        self._edges_into.setdefault(dst, []).append(edge)
        self._edges_from.setdefault(src, []).append(edge)

    def edges_into(self, uid: int, kind: str | None = None) -> list[DynEdge]:
        edges = self._edges_into.get(uid, [])
        if kind is None:
            return list(edges)
        return [e for e in edges if e.kind == kind]

    def edges_from(self, uid: int, kind: str | None = None) -> list[DynEdge]:
        edges = self._edges_from.get(uid, [])
        if kind is None:
            return list(edges)
        return [e for e in edges if e.kind == kind]

    def data_parents(self, uid: int) -> list[tuple[DynNode, str]]:
        """(defining node, variable) pairs this node's reads depend on."""
        return [
            (self.nodes[e.src], e.label) for e in self.edges_into(uid, DATA)
        ]

    def control_parent(self, uid: int) -> Optional[DynNode]:
        edges = self.edges_into(uid, CONTROL)
        return self.nodes[edges[0].src] if edges else None

    def nodes_of_kind(self, kind: str) -> list[DynNode]:
        return [n for n in self.nodes.values() if n.kind == kind]

    def interior_of(self, subgraph_uid: int) -> list[int]:
        """The interior event uids of an inline-executed sub-graph node.

        Empty for replay sub-graph nodes (their interior lives in another
        log interval until the controller expands it, §5.2).
        """
        expanded = self.expansions.get(subgraph_uid)
        if expanded is not None:
            return list(expanded)
        node = self.nodes.get(subgraph_uid)
        if node is None or node.span is None:
            return []
        low, high = node.span
        return [
            uid
            for uid, n in self.nodes.items()
            if low <= uid <= high and n.pid == node.pid
        ]

    def find_assignments(self, var: str, pid: int | None = None) -> list[DynNode]:
        """All singular nodes that assigned *var*, in uid (time) order."""
        result = [
            n
            for n in self.nodes.values()
            if n.kind == SINGULAR
            and n.node_id != 0
            and n.label.startswith(f"{var} ")
        ]
        if pid is not None:
            result = [n for n in result if n.pid == pid]
        return sorted(result, key=lambda n: n.uid)


class DynamicGraphBuilder:
    """Folds trace events into a :class:`DynamicGraph`.

    One builder instance accumulates events from many replays (the
    incremental-tracing workflow); uids are globally unique because each
    replay's tracer gets its own base offset.
    """

    def __init__(self, cfgs: dict[str, CFG], database: ProgramDatabase) -> None:
        self.cfgs = cfgs
        self.database = database
        self.graph = DynamicGraph()
        #: (frame_uid, predicate stmt node_id) -> most recent EV_PRED uid
        self._last_pred: dict[tuple[int, int], int] = {}
        #: frame_uid -> enter event uid (the frame's ENTRY node)
        self._frame_enter: dict[int, int] = {}
        #: per-pid uid of the previous event (flow edges)
        self._prev_event: dict[int, int] = {}
        #: lazily created INITIAL nodes per variable key
        self._initial_nodes: dict[str, int] = {}
        self._initial_uid = -1000
        #: static control dependence, built for a procedure on its first
        #: event: proc -> stmt node_id -> [(pred stmt node_id, label)]
        self._static_cd: dict[str, dict[int, list[tuple[int, str]]]] = {}
        #: call event uid -> (enter uid, ret uid) once seen
        self._call_spans: dict[int, list[int]] = {}
        self._open_calls: dict[int, int] = {}  # enter frame uid -> call uid

    def _proc_control_deps(self, proc: str) -> dict[int, list[tuple[int, str]]]:
        """*proc*'s statement-level control dependences (empty when the
        program has no such procedure), computed once."""
        from ..analysis.postdom import control_dependence

        per_stmt: dict[int, list[tuple[int, str]]] = {}
        cfg = self.cfgs.get(proc)
        if cfg is not None:
            for cfg_node_id, parents in control_dependence(cfg).items():
                node = cfg.nodes[cfg_node_id]
                if node.stmt is None:
                    continue
                entries = []
                for pred_cfg_id, label in parents:
                    pred_node = cfg.nodes[pred_cfg_id]
                    if pred_node.stmt is None:
                        continue
                    entries.append((pred_node.stmt.node_id, label))
                if entries:
                    per_stmt[node.stmt.node_id] = entries
        self._static_cd[proc] = per_stmt
        return per_stmt

    # ------------------------------------------------------------------

    def add_events(self, events: Iterable[TraceEvent]) -> None:
        """Fold a batch of trace events into the graph."""
        for event in events:
            self._add_event(event)

    def _add_event(self, event: TraceEvent) -> None:
        handler = {
            EV_STMT: self._on_stmt,
            EV_PRED: self._on_pred,
            EV_CALL: self._on_call,
            EV_ENTER: self._on_enter,
            EV_RET: self._on_ret,
            "sync": self._on_sync,
            EV_INPUT: self._on_input,
            EV_PRINT: self._on_simple,
            EV_ASSERT: self._on_simple,
            EV_SUBGRAPH: self._on_replay_subgraph,
            EV_EXTERN: self._on_extern,
        }.get(event.kind)
        if handler is None:
            return
        handler(event)

    # -- per-kind handlers ---------------------------------------------------

    def _text(self, event: TraceEvent) -> str:
        source = self.database.statement_text(event.node_id)
        return source if not source.startswith("<node") else event.var

    def _flow(self, event: TraceEvent) -> None:
        prev = self._prev_event.get(event.pid)
        if prev is not None:
            self.graph.add_edge(prev, event.uid, FLOW)
        self._prev_event[event.pid] = event.uid

    def _control_dep(self, event: TraceEvent) -> None:
        """Dynamic control dependence: the latest instance of the statically
        governing predicate within the same activation record."""
        per_stmt = self._static_cd.get(event.proc)
        if per_stmt is None:
            per_stmt = self._proc_control_deps(event.proc)
        parents = per_stmt.get(event.node_id)
        if parents:
            for pred_node_id, label in parents:
                pred_uid = self._last_pred.get((event.frame_uid, pred_node_id))
                if pred_uid is not None:
                    self.graph.add_edge(pred_uid, event.uid, CONTROL, label)
                    return
        enter_uid = self._frame_enter.get(event.frame_uid)
        if enter_uid is not None:
            self.graph.add_edge(enter_uid, event.uid, CONTROL, "entry")

    def _data_deps(self, event: TraceEvent, reads=None) -> None:
        for key, def_uid in reads if reads is not None else event.reads:
            src = def_uid if def_uid >= 0 else self._initial_node(key, event.pid)
            self.graph.add_edge(src, event.uid, DATA, key)

    def _initial_node(self, key: str, pid: int) -> int:
        uid = self._initial_nodes.get(key)
        if uid is None:
            self._initial_uid -= 1
            uid = self._initial_uid
            self.graph.add_node(
                DynNode(uid=uid, kind=INITIAL, label=f"{key} (initial)", pid=pid)
            )
            self._initial_nodes[key] = uid
        return uid

    def _on_stmt(self, event: TraceEvent) -> None:
        label = f"{event.var} {event.stmt_label}".strip()
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SINGULAR,
                label=label,
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                stmt_label=event.stmt_label,
                value=event.value,
            )
        )
        self._data_deps(event)
        self._control_dep(event)
        self._flow(event)

    def _on_pred(self, event: TraceEvent) -> None:
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SINGULAR,
                label=f"{self._text(event)} {event.stmt_label}".strip(),
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                stmt_label=event.stmt_label,
                value=event.value,
            )
        )
        self._data_deps(event)
        self._control_dep(event)
        self._flow(event)
        self._last_pred[(event.frame_uid, event.node_id)] = event.uid

    def _on_call(self, event: TraceEvent) -> None:
        """A user call: create the sub-graph node and its %n parameter flow."""
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SUBGRAPH,
                label=f"{event.var}()",
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                value=event.value,
                interval_id=event.interval_id,
            )
        )
        arg_kinds = self.database.call_arg_kinds.get(event.node_id, [])
        arg_texts = self.database.call_arg_texts.get(event.node_id, [])
        for position, reads in enumerate(event.arg_reads):
            kind = arg_kinds[position] if position < len(arg_kinds) else "expr"
            if kind == "name" and len(reads) == 1:
                # A plain variable actual: data edge straight into the call.
                key, def_uid = reads[0]
                src = def_uid if def_uid >= 0 else self._initial_node(key, event.pid)
                self.graph.add_edge(src, event.uid, DATA, f"%{position + 1}:{key}")
            else:
                # Fictional singular node for an expression actual (Fig 4.1).
                param_uid = event.uid * 1000 + position + 1 + 10**9
                text = arg_texts[position] if position < len(arg_texts) else ""
                value = (
                    event.arg_values[position]
                    if position < len(event.arg_values)
                    else None
                )
                self.graph.add_node(
                    DynNode(
                        uid=param_uid,
                        kind=PARAM,
                        label=f"%{position + 1}" + (f" = {text}" if text else ""),
                        pid=event.pid,
                        proc=event.proc,
                        node_id=event.node_id,
                        value=value,
                    )
                )
                for key, def_uid in reads:
                    src = def_uid if def_uid >= 0 else self._initial_node(key, event.pid)
                    self.graph.add_edge(src, param_uid, DATA, key)
                self.graph.add_edge(param_uid, event.uid, DATA, f"%{position + 1}")
        self._control_dep(event)
        self._flow(event)

    def _on_enter(self, event: TraceEvent) -> None:
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=ENTRY,
                label=f"ENTRY {event.var}",
                pid=event.pid,
                proc=event.var,
                node_id=event.node_id,
            )
        )
        self._frame_enter[event.frame_uid] = event.uid
        if event.call_uid >= 0:
            self._call_spans[event.call_uid] = [event.uid]
            self._open_calls[event.frame_uid] = event.call_uid
            self.graph.add_edge(event.call_uid, event.uid, FLOW, "call")
        self._flow(event)

    def _on_ret(self, event: TraceEvent) -> None:
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SINGULAR,
                label=f"%0 {event.stmt_label}".strip(),
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                stmt_label=event.stmt_label,
                value=event.value,
            )
        )
        self._data_deps(event)
        self._control_dep(event)
        self._flow(event)
        call_uid = self._open_calls.pop(event.frame_uid, None)
        if call_uid is not None:
            span = self._call_spans.setdefault(call_uid, [event.uid])
            span.append(event.uid)
            # The sub-graph node's value is the function's returned value
            # (%0), and the graph records the expansion span.
            call_node = self.graph.nodes.get(call_uid)
            if call_node is not None:
                call_node.value = event.value
                call_node.span = (span[0], event.uid)
            self.graph.add_edge(event.uid, call_uid, DATA, "%0")

    def _on_sync(self, event: TraceEvent) -> None:
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SYNC,
                label=f"{event.label}({event.var}) {event.stmt_label}".strip(),
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                stmt_label=event.stmt_label,
            )
        )
        self._control_dep(event)
        self._flow(event)

    def _on_input(self, event: TraceEvent) -> None:
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SINGULAR,
                label=f"{event.var} -> {event.value}",
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                value=event.value,
            )
        )
        self._control_dep(event)
        self._flow(event)

    def _on_simple(self, event: TraceEvent) -> None:
        label = self._text(event) or event.kind
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SINGULAR,
                label=f"{label} {event.stmt_label}".strip(),
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                stmt_label=event.stmt_label,
                value=event.value,
            )
        )
        self._data_deps(event)
        self._control_dep(event)
        self._flow(event)

    def _on_replay_subgraph(self, event: TraceEvent) -> None:
        """A nested e-block the replay skipped via its postlog (§5.2)."""
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=SUBGRAPH,
                label=f"{event.var}() [interval {event.value}]",
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                value=None,
                interval_id=event.value,
            )
        )
        for position, reads in enumerate(event.arg_reads):
            for key, def_uid in reads:
                src = def_uid if def_uid >= 0 else self._initial_node(key, event.pid)
                self.graph.add_edge(src, event.uid, DATA, f"%{position + 1}:{key}")
        self._control_dep(event)
        self._flow(event)

    def _on_extern(self, event: TraceEvent) -> None:
        """Shared values imported at a sync-unit boundary during replay."""
        self.graph.add_node(
            DynNode(
                uid=event.uid,
                kind=EXTERN,
                label=f"{event.var} (from another process)",
                pid=event.pid,
                proc=event.proc,
                node_id=event.node_id,
                value=event.value,
            )
        )
        # No flow edge: externs are not local events, they annotate state.

    # ------------------------------------------------------------------

    def add_sync_edges(
        self, history, trace_of_sync: dict[int, int]
    ) -> int:
        """Translate synchronization-history edges onto trace events."""
        added = 0
        for edge in history.edges:
            src = trace_of_sync.get(edge.src_uid)
            dst = trace_of_sync.get(edge.dst_uid)
            if src is None or dst is None:
                continue
            if src in self.graph.nodes and dst in self.graph.nodes:
                self.graph.add_edge(src, dst, SYNC_EDGE, edge.label)
                added += 1
        return added
