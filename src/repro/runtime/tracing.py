"""Trace events and the synchronization history.

Two distinct artifacts live here:

* :class:`TraceEvent` / :class:`Tracer` — the *full* event trace.  During
  normal execution this is only produced by the full-tracing baseline
  (Balzer-style, E2); during the debugging phase the emulation package
  produces exactly the same kind of trace, but only for the e-blocks the
  user asks about (§5.3).  The dynamic program dependence graph is built
  from these events.

* :class:`SyncHistory` — the per-execution record of synchronization nodes,
  synchronization edges, and *segments* (the dynamic counterpart of the
  paper's internal edges, §6.1), each with the shared-variable READ/WRITE
  sets of Def 6.2.  The paper notes the parallel dynamic graph "can be
  built during program execution"; this is that structure.  Its nodes are
  the processes' :class:`~repro.runtime.logging.SyncLog` entries; its
  vector clocks are derived from the nodes and edges on the first ordering
  query, never recorded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .clocks import VectorClock, derive_clocks, happened_before_or_equal
from .logging import SyncLog, encode_value

# Trace event kinds.
EV_STMT = "stmt"  # an assignment (or decl-with-init) — a singular node
EV_PRED = "pred"  # a control predicate evaluation — a singular node
EV_CALL = "call"  # user call: argument evaluation completed
EV_ENTER = "enter"  # control entered a user procedure body
EV_RET = "ret"  # a return statement (or implicit proc end)
EV_SYNC = "sync"  # P/V/lock/unlock/send/recv/spawn/join
EV_PRINT = "print"
EV_ASSERT = "assert"
EV_INPUT = "input"  # input()/rand()/recv value arrival
EV_SUBGRAPH = "subgraph"  # an unexpanded nested e-block (replay only, §5.2)
EV_EXTERN = "extern"  # shared values imported from a sync prelog (replay only)


@dataclass
class TraceEvent:
    """One event of a program's (re-)execution."""

    uid: int
    pid: int
    kind: str
    node_id: int  # AST node id of the owning statement/expression
    proc: str
    stmt_label: str = ""
    var: str = ""  # assigned variable (stmt), sync object (sync), callee (call)
    value: Any = None  # assigned value / predicate outcome / return value
    #: variables read: (name-or-element-key, defining event uid, pretty name)
    reads: list[tuple[str, int]] = field(default_factory=list)
    #: for calls: one read-list per actual argument
    arg_reads: list[list[tuple[str, int]]] = field(default_factory=list)
    arg_values: list[Any] = field(default_factory=list)
    label: str = ""  # sync op name, branch taken, etc.
    #: uid of the matching EV_CALL for EV_ENTER/EV_RET events
    call_uid: int = -1
    #: unique id of the activation record this event executed in (dynamic
    #: control dependences are resolved per frame instance)
    frame_uid: int = 0
    #: for replay-skipped calls/loops: the nested log interval that would
    #: expand this sub-graph node (§5.2)
    interval_id: Optional[int] = None

    def shifted(self, offset: int) -> "TraceEvent":
        """A copy with every event-uid reference moved by *offset*.

        Replay workers regenerate events at ``uid_base=0``; sessions shift
        them into their own uid space.  Only uids are translated — the
        sentinel ``-1`` (no defining event / no matching call) and
        ``frame_uid`` (derived from a base-independent frame counter) pass
        through unchanged, which is what makes a shifted base-0 replay
        byte-identical to a replay run natively at ``uid_base=offset``.
        """

        def s(uid: int) -> int:
            return uid + offset if uid >= 0 else uid

        return TraceEvent(
            uid=s(self.uid),
            pid=self.pid,
            kind=self.kind,
            node_id=self.node_id,
            proc=self.proc,
            stmt_label=self.stmt_label,
            var=self.var,
            value=self.value,
            reads=[(name, s(uid)) for name, uid in self.reads],
            arg_reads=[
                [(name, s(uid)) for name, uid in row] for row in self.arg_reads
            ],
            arg_values=list(self.arg_values),
            label=self.label,
            call_uid=s(self.call_uid),
            frame_uid=self.frame_uid,
            interval_id=self.interval_id,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "uid": self.uid,
                "pid": self.pid,
                "kind": self.kind,
                "node": self.node_id,
                "proc": self.proc,
                "stmt": self.stmt_label,
                "var": self.var,
                "value": encode_value(self.value),
                "reads": self.reads,
                "label": self.label,
            },
            separators=(",", ":"),
            default=encode_value,
        )


class Tracer:
    """Collects trace events and accounts for their size.

    ``base`` offsets the uids so traces from several replays can be merged
    into one dynamic graph without collisions.
    """

    def __init__(self, base: int = 0) -> None:
        self.base = base
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> TraceEvent:
        self.events.append(event)
        return event

    def next_uid(self) -> int:
        return self.base + len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def byte_size(self) -> int:
        """Serialised size of the full trace (the E2 comparison point)."""
        return sum(len(event.to_json()) + 1 for event in self.events)


# --------------------------------------------------------------------------
# Synchronization history (parallel dynamic graph skeleton)
# --------------------------------------------------------------------------


@dataclass
class SyncEdgeRec:
    """A synchronization edge between two sync nodes (§6.2)."""

    src_uid: int
    dst_uid: int
    label: str  # "sem" | "lock" | "msg" | "unblock" | "spawn" | "join"


@dataclass
class Segment:
    """An internal edge: the events of one process between two consecutive
    synchronization nodes, with its shared READ/WRITE sets (Def 6.2)."""

    seg_id: int
    pid: int
    start_uid: int
    end_uid: Optional[int] = None  # None while the segment is still open
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    #: (ast node_id, var) pairs for precise reporting of race sites
    read_sites: list[tuple[int, str]] = field(default_factory=list)
    write_sites: list[tuple[int, str]] = field(default_factory=list)
    event_count: int = 0
    #: preemption points executed inside the segment — a work measure that,
    #: unlike ``event_count``, is nonzero for pure message-passing code
    step_count: int = 0


@dataclass
class SyncHistory:
    """Everything the machine records about synchronization."""

    nodes: dict[int, SyncLog] = field(default_factory=dict)
    edges: list[SyncEdgeRec] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    #: pid -> uids of that process's sync nodes, in order
    per_process: dict[int, list[int]] = field(default_factory=dict)
    #: (node count, edge count) at the last derivation, and its clocks
    _derived: Optional[tuple[tuple[int, int], dict[int, VectorClock]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # Clocks are derived on demand: a pickled record (the replay pool
        # ships one to each worker) carries none.
        state = dict(self.__dict__)
        state["_derived"] = None
        return state

    def add_node(self, node: SyncLog) -> None:
        self.nodes[node.uid] = node
        self.per_process.setdefault(node.pid, []).append(node.uid)

    def add_edge(self, src_uid: int, dst_uid: int, label: str) -> None:
        self.edges.append(SyncEdgeRec(src_uid=src_uid, dst_uid=dst_uid, label=label))

    def clocks(self) -> dict[int, VectorClock]:
        """Every node's vector clock by uid (:func:`derive_clocks`).

        Derived on the first call and again after a node or an edge was
        added.  The whole map is built before one assignment publishes
        it, so threads racing on a first query each compute the same map
        and none reads a partial one.
        """
        size = (len(self.nodes), len(self.edges))
        derived = self._derived
        if derived is None or derived[0] != size:
            derived = (size, derive_clocks(self.nodes.values(), self.edges))
            self._derived = derived
        return derived[1]

    def node_reaches(self, a_uid: int, b_uid: int) -> bool:
        """Reflexive happened-before between two sync nodes (§6.1's "+")."""
        if a_uid == b_uid:
            return True
        clocks = self.clocks()
        return happened_before_or_equal(
            clocks[a_uid], self.nodes[a_uid].pid, clocks[b_uid]
        )

    def closed_segments(self) -> list[Segment]:
        return [seg for seg in self.segments if seg.end_uid is not None]
