"""The static program dependence graph (§4.1).

A variation of the Kuck/Ferrante-Ottenstein-Warren program dependence
graph: per procedure, nodes are the CFG's statement and predicate nodes
plus ENTRY/EXIT, and three static edge kinds mirror the dynamic graph's
edge kinds — flow (control-flow succession), data dependence (static
def-use chains from reaching definitions), and control dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from .cfg import CFG, build_cfgs
from .dataflow import ReachingDefinitions, Summaries, UseDefTable, reaching_definitions
from .interproc import CallGraph, build_call_graph, compute_summaries
from .postdom import control_dependence
from .symbols import SymbolTable, check_program

FLOW = "flow"
DATA = "data"
CONTROL = "control"


@dataclass
class StaticEdge:
    """One static dependence edge between CFG nodes of a procedure."""

    src: int
    dst: int
    kind: str  # FLOW | DATA | CONTROL
    label: str = ""  # branch label for control edges, variable for data edges


@dataclass
class StaticProcGraph:
    """Static program dependence graph of a single procedure."""

    proc_name: str
    cfg: CFG
    edges: list[StaticEdge] = field(default_factory=list)
    reaching: ReachingDefinitions | None = None

    def edges_of_kind(self, kind: str) -> list[StaticEdge]:
        return [e for e in self.edges if e.kind == kind]

    def data_deps_into(self, node_id: int) -> list[StaticEdge]:
        return [e for e in self.edges if e.kind == DATA and e.dst == node_id]

    def control_deps_into(self, node_id: int) -> list[StaticEdge]:
        return [e for e in self.edges if e.kind == CONTROL and e.dst == node_id]


@dataclass
class StaticGraph:
    """The whole-program static graph: one sub-graph per procedure, plus the
    call graph and side-effect summaries used to stitch them together."""

    program: ast.Program
    table: SymbolTable
    call_graph: CallGraph
    summaries: Summaries
    procs: dict[str, StaticProcGraph] = field(default_factory=dict)

    def proc_graph(self, name: str) -> StaticProcGraph:
        return self.procs[name]


def build_static_proc_graph(
    proc_name: str, cfg: CFG, summaries: Summaries, use_def: UseDefTable | None = None
) -> StaticProcGraph:
    """Build one procedure's static PDG from its CFG."""
    graph = StaticProcGraph(proc_name=proc_name, cfg=cfg)

    for src, succ_list in cfg.succs.items():
        for dst, label in succ_list:
            graph.edges.append(StaticEdge(src=src, dst=dst, kind=FLOW, label=label))

    reaching = reaching_definitions(cfg, summaries, use_def)
    graph.reaching = reaching
    for def_node, use_node, var in reaching.du_edges():
        graph.edges.append(StaticEdge(src=def_node, dst=use_node, kind=DATA, label=var))

    for node_id, deps in control_dependence(cfg).items():
        for pred_node, label in deps:
            graph.edges.append(
                StaticEdge(src=pred_node, dst=node_id, kind=CONTROL, label=label)
            )
    return graph


def build_static_graph(
    program: ast.Program,
    table: SymbolTable | None = None,
    call_graph: CallGraph | None = None,
    summaries: Summaries | None = None,
    cfgs: dict[str, CFG] | None = None,
    use_def: UseDefTable | None = None,
) -> StaticGraph:
    """Build the full static program dependence graph of *program*.

    Analyses the caller already holds (the USE/DEF table included) are
    shared, not rebuilt; they are only read here.
    """
    if table is None:
        table = check_program(program)
    if call_graph is None:
        call_graph = build_call_graph(program)
    if summaries is None:
        summaries = compute_summaries(program, table, call_graph)
    if cfgs is None:
        cfgs = build_cfgs(program)
    graph = StaticGraph(
        program=program, table=table, call_graph=call_graph, summaries=summaries
    )
    if use_def is None:
        use_def = UseDefTable(summaries)
    for name, cfg in cfgs.items():
        graph.procs[name] = build_static_proc_graph(name, cfg, summaries, use_def)
    return graph
