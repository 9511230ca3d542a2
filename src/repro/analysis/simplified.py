"""The simplified static graph and synchronization units (§5.5, Fig 5.3).

The simplified static graph is the subset of the static graph with only
flow edges and only the "interesting" nodes kept explicit:

* ENTRY and EXIT nodes,
* synchronization operations (P/V, lock/unlock, send/recv, spawn/join),
* subroutine call sites (sub-graph nodes), and
* branching nodes (``if``/``while``/``for`` predicates).

All other statements live *on* the edges.  A **synchronization unit**
(Def 5.1) is the set of edges reachable from a non-branching node without
passing through another non-branching node.  The shared variables that may
be read inside a unit get an extra *sync-prelog* at the unit's start, which
is what makes e-block replay reproducible for parallel programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from .cfg import CFG, ENTRY, EXIT, PRED, build_cfg
from .dataflow import Summaries, UseDefTable
from .symbols import SymbolTable

# Node classifications in the simplified graph.
N_ENTRY = "entry"
N_EXIT = "exit"
N_SYNC = "sync"
N_CALL = "call"
N_BRANCH = "branch"

_SYNC_STMT_TYPES = (
    ast.SemP,
    ast.SemV,
    ast.LockStmt,
    ast.UnlockStmt,
    ast.Send,
    ast.Spawn,
    ast.Join,
    ast.Accept,
    ast.Reply,
)


@dataclass
class SimplifiedEdge:
    """One edge of the simplified static graph.

    ``covered`` holds the CFG node ids of the plain statements collapsed
    onto this edge (in flow order).
    """

    edge_id: int
    src: int  # CFG node id of the source marked node
    dst: int  # CFG node id of the destination marked node
    branch_label: str  # label on the first CFG edge ("true"/"false"/"")
    covered: list[int] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"e{self.edge_id}"


@dataclass
class SyncUnit:
    """One synchronization unit (Def 5.1)."""

    unit_id: int
    start_node: int  # CFG node id of the defining non-branching node
    edges: frozenset[int] = frozenset()  # SimplifiedEdge ids
    shared_reads: frozenset[str] = frozenset()
    shared_writes: frozenset[str] = frozenset()


@dataclass
class SimplifiedGraph:
    """Simplified static graph plus sync units for one procedure."""

    proc_name: str
    cfg: CFG
    #: CFG node id -> classification (only marked nodes appear)
    node_kinds: dict[int, str] = field(default_factory=dict)
    edges: list[SimplifiedEdge] = field(default_factory=list)
    units: list[SyncUnit] = field(default_factory=list)
    #: unit-start CFG node id -> SyncUnit
    unit_at: dict[int, SyncUnit] = field(default_factory=dict)

    @property
    def branching_nodes(self) -> list[int]:
        return [n for n, kind in self.node_kinds.items() if kind == N_BRANCH]

    @property
    def non_branching_nodes(self) -> list[int]:
        return [n for n, kind in self.node_kinds.items() if kind != N_BRANCH]

    def edges_from(self, node_id: int) -> list[SimplifiedEdge]:
        return [e for e in self.edges if e.src == node_id]


def _is_marked(cfg: CFG, node_id: int, user_procs: set[str]) -> str | None:
    """Classify a CFG node if it belongs in the simplified graph."""
    node = cfg.nodes[node_id]
    if node.kind == ENTRY:
        return N_ENTRY
    if node.kind == EXIT:
        return N_EXIT
    if node.kind == PRED:
        return N_BRANCH
    stmt = node.stmt
    if stmt is None:
        return None
    if isinstance(stmt, _SYNC_STMT_TYPES):
        return N_SYNC
    # A STMT node's statement nests no other statement.  One containing a
    # blocking receive or a rendezvous call is a synchronization point; a
    # call site of a user procedure becomes a sub-graph (call) node.
    kind = None
    for child in ast.walk(stmt):
        if isinstance(child, (ast.RecvExpr, ast.CallEntry)):
            return N_SYNC
        if isinstance(child, ast.CallExpr) and child.name in user_procs:
            kind = N_CALL
    return kind


def build_simplified_graph(
    proc: ast.ProcDef,
    table: SymbolTable,
    summaries: Summaries,
    cfg: CFG | None = None,
    use_def: UseDefTable | None = None,
) -> SimplifiedGraph:
    """Build the simplified static graph and sync units for *proc*."""
    if cfg is None:
        cfg = build_cfg(proc)
    if use_def is None:
        use_def = UseDefTable(summaries)
    user_procs = set(summaries.keys())
    graph = SimplifiedGraph(proc_name=proc.name, cfg=cfg)

    for node_id in cfg.nodes:
        kind = _is_marked(cfg, node_id, user_procs)
        if kind is not None:
            graph.node_kinds[node_id] = kind

    # Build simplified edges: from each marked node, follow each CFG
    # out-edge through unmarked single-successor statements until the next
    # marked node.
    edge_counter = 0
    for src in graph.node_kinds:
        for first_dst, label in cfg.succs[src]:
            covered: list[int] = []
            current = first_dst
            guard = 0
            while current not in graph.node_kinds:
                covered.append(current)
                succs = cfg.successors(current)
                if not succs:
                    break  # dangling (unreachable tail); drop the edge
                current = succs[0]
                guard += 1
                if guard > len(cfg.nodes) + 1:
                    raise RuntimeError(
                        f"simplified-edge walk did not terminate in {proc.name}"
                    )
            if current not in graph.node_kinds:
                continue
            edge_counter += 1
            graph.edges.append(
                SimplifiedEdge(
                    edge_id=edge_counter,
                    src=src,
                    dst=current,
                    branch_label=label,
                    covered=covered,
                )
            )

    _compute_units(graph, table, use_def)
    return graph


def _edge_shared_accesses(
    graph: SimplifiedGraph, edge: SimplifiedEdge, shared: set[str], use_def: UseDefTable
) -> tuple[set[str], set[str]]:
    """Variables of *shared* possibly read/written on one simplified edge.

    Includes the reads of the destination predicate when the edge ends at a
    branching node (the predicate evaluates at the unit's frontier, so its
    shared reads must be prelogged conservatively).
    """
    reads: set[str] = set()
    writes: set[str] = set()
    for cfg_node_id in edge.covered:
        stmt = graph.cfg.nodes[cfg_node_id].stmt
        if stmt is None:
            continue
        uses, defs = use_def.of(stmt)
        reads |= uses
        writes |= defs
    # Accesses made by the boundary statements themselves are attributed to
    # the units on both sides: a mixed statement like ``x = recv(c) + SV``
    # reads SV after the sync point, while ``send(c, SV)`` reads it before.
    # Being conservative on both sides keeps the sync-prelogs sound.
    for endpoint in (edge.src, edge.dst):
        kind = graph.node_kinds.get(endpoint)
        node = graph.cfg.nodes[endpoint]
        if node.stmt is None:
            continue
        if kind == N_BRANCH and endpoint == edge.dst:
            reads |= use_def.of(node.stmt)[0]
        elif kind in (N_SYNC, N_CALL):
            uses, defs = use_def.of(node.stmt)
            reads |= uses
            writes |= defs
    return reads & shared, writes & shared


def _compute_units(graph: SimplifiedGraph, table: SymbolTable, use_def: UseDefTable) -> None:
    """Compute the synchronization units of Def 5.1 for *graph*."""
    edges_from: dict[int, list[SimplifiedEdge]] = {}
    for edge in graph.edges:
        edges_from.setdefault(edge.src, []).append(edge)
    # Shared variables this procedure does not shadow with a local.
    shared = table.shared.keys() - table.locals.get(graph.proc_name, {}).keys()
    #: edge id -> its shared (reads, writes); an edge can lie in several units
    accesses = {
        edge.edge_id: _edge_shared_accesses(graph, edge, shared, use_def)
        for edge in graph.edges
    }

    unit_counter = 0
    for start in graph.non_branching_nodes:
        if graph.node_kinds[start] == N_EXIT:
            continue  # nothing follows an exit
        reached_edges: set[int] = set()
        frontier = [start]
        visited_nodes: set[int] = set()
        first = True
        while frontier:
            node = frontier.pop()
            if node in visited_nodes:
                continue
            visited_nodes.add(node)
            # Expand only from the start node itself and branching nodes;
            # another non-branching node terminates the unit (Def 5.1).
            if not first and graph.node_kinds.get(node) != N_BRANCH:
                continue
            first = False
            for edge in edges_from.get(node, ()):
                if edge.edge_id in reached_edges:
                    continue
                reached_edges.add(edge.edge_id)
                frontier.append(edge.dst)

        reads: set[str] = set()
        writes: set[str] = set()
        for edge_id in reached_edges:
            edge_reads, edge_writes = accesses[edge_id]
            reads |= edge_reads
            writes |= edge_writes

        unit_counter += 1
        unit = SyncUnit(
            unit_id=unit_counter,
            start_node=start,
            edges=frozenset(reached_edges),
            shared_reads=frozenset(reads),
            shared_writes=frozenset(writes),
        )
        graph.units.append(unit)
        graph.unit_at[start] = unit


def build_simplified_graphs(
    program: ast.Program,
    table: SymbolTable,
    summaries: Summaries,
    cfgs: dict[str, CFG] | None = None,
    use_def: UseDefTable | None = None,
) -> dict[str, SimplifiedGraph]:
    """Simplified graphs for every procedure of *program*."""
    if use_def is None:
        use_def = UseDefTable(summaries)
    graphs: dict[str, SimplifiedGraph] = {}
    for proc in program.procs:
        cfg = cfgs.get(proc.name) if cfgs else None
        graphs[proc.name] = build_simplified_graph(proc, table, summaries, cfg, use_def)
    return graphs
