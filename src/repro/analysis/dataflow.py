"""Data-flow analyses: USED/DEFINED sets and reaching definitions (§5.1).

The paper's incremental tracing hinges on two per-region sets computed at
compile time:

* ``USED(i)`` — variables that *may be read* during e-block ``i`` (these are
  prelogged), and
* ``DEFINED(i)`` — variables that *may be written* (these are postlogged).

This module computes per-statement use/def sets (consulting interprocedural
REF/MOD summaries for call sites), aggregates them over regions, and runs
reaching definitions over the CFG to produce static def-use chains for the
static program dependence graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..lang import ast
from .cfg import CFG, PRED, STMT
from .postdom import reverse_postorder


@dataclass
class ProcSummary:
    """Interprocedural side-effect summary of one procedure (§4.1).

    ``ref``/``mod`` are over *shared* variables only — PCL has no reference
    parameters, so a callee's only caller-visible effects are on shared
    memory (plus its return value).
    """

    name: str
    ref: set[str] = field(default_factory=set)
    mod: set[str] = field(default_factory=set)
    reads_input: bool = False  # calls input()/rand() somewhere
    has_sync: bool = False  # contains P/V/lock/send/recv/spawn somewhere
    calls: set[str] = field(default_factory=set)


Summaries = dict[str, ProcSummary]


def _stmt_exprs(stmt: ast.Stmt) -> list[ast.Expr]:
    """The expressions *stmt*'s own node evaluates.

    For compound statements (``if``/``while``/``for``) this is the predicate
    only; the bodies own their own CFG nodes.
    """
    if isinstance(stmt, ast.Assign):
        if isinstance(stmt.target, ast.Index):
            return [stmt.value, stmt.target.index]
        return [stmt.value]
    if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AssertStmt)):
        return [stmt.cond]
    if isinstance(stmt, ast.CallStmt):
        return [stmt.call]
    if isinstance(stmt, (ast.Return, ast.Send, ast.Reply)):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, (ast.Spawn, ast.Print)):
        return stmt.args
    return []


def stmt_use_def(stmt: ast.Stmt, summaries: Summaries) -> tuple[set[str], set[str]]:
    """(USE, DEF): the variables executing *stmt*'s own node may read and
    may write, the REF/MOD of every user call it makes included.

    One walk over the node's expressions finds both its reads and its
    calls.  An element write ``a[i] = v`` reads ``i`` and writes ``a``.
    """
    uses: set[str] = set()
    defs: set[str] = set()
    for expr in _stmt_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Index)):
                uses.add(node.name)
            elif isinstance(node, ast.CallExpr):
                summary = summaries.get(node.name)
                if summary is not None:
                    uses |= summary.ref
                    defs |= summary.mod
    if isinstance(stmt, ast.Assign):
        defs.add(stmt.target.name)
    elif isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            defs.add(stmt.name)
    elif isinstance(stmt, ast.Accept):
        # The accept node itself binds the caller's actuals to the params.
        defs.update(param.name for param in stmt.params)
    return uses, defs


def stmt_uses(stmt: ast.Stmt, summaries: Summaries) -> set[str]:
    """Variables that executing *stmt*'s own node may read."""
    return stmt_use_def(stmt, summaries)[0]


def stmt_defs(stmt: ast.Stmt, summaries: Summaries) -> set[str]:
    """Variables that executing *stmt*'s own node may write."""
    return stmt_use_def(stmt, summaries)[1]


class UseDefTable:
    """Each statement's (USE, DEF) sets, computed at most once per table.

    ``compile_program`` builds one table right after the REF/MOD summaries
    and hands it to the simplified graphs, liveness and the e-block
    builder; the compiled program keeps it for the static graph it builds
    on first read.  So each statement's sets are computed once.  A builder
    called without one makes its own.  The sets are shared: nobody may
    change them.
    """

    def __init__(self, summaries: Summaries) -> None:
        self.summaries = summaries
        self._sets: dict[int, tuple[set[str], set[str]]] = {}

    def of(self, stmt: ast.Stmt) -> tuple[set[str], set[str]]:
        sets = self._sets.get(stmt.node_id)
        if sets is None:
            sets = self._sets[stmt.node_id] = stmt_use_def(stmt, self.summaries)
        return sets


def _is_array_write(stmt: ast.Stmt) -> bool:
    return isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Index)


# --------------------------------------------------------------------------
# Reaching definitions over the CFG
# --------------------------------------------------------------------------

#: A definition: (variable name, CFG node id that defines it).  Node id -1
#: denotes the initial definition at procedure entry (parameters, shared
#: variables, and uninitialised locals).
Definition = tuple[str, int]


@dataclass
class ReachingDefinitions:
    """Result of the reaching-definitions analysis for one CFG."""

    cfg: CFG
    gen: dict[int, set[Definition]]
    kill_vars: dict[int, set[str]]
    reach_in: dict[int, set[Definition]]
    reach_out: dict[int, set[Definition]]
    uses: dict[int, set[str]]
    defs: dict[int, set[str]]

    def du_edges(self) -> list[tuple[int, int, str]]:
        """Static def-use chains: ``(def_node, use_node, variable)``.

        The entry pseudo-definition (node id -1) is reported with source
        equal to the CFG entry node.  Each use node's chains are sorted, so
        the order does not follow set iteration, which can differ between
        equal sets (a set and its unpickled copy, say).
        """
        edges: list[tuple[int, int, str]] = []
        entry = self.cfg.entry
        for node_id, used in self.uses.items():
            if used:
                edges.extend(
                    sorted(
                        (entry if def_node == -1 else def_node, node_id, var)
                        for var, def_node in self.reach_in[node_id]
                        if var in used
                    )
                )
        return edges


def reaching_definitions(
    cfg: CFG, summaries: Summaries, use_def: UseDefTable | None = None
) -> ReachingDefinitions:
    """Run forward may-analysis of reaching definitions on *cfg*.

    Array element writes are weak updates (gen without kill); every other
    write both generates a definition and kills prior ones of that name.
    Sweeps the nodes in reverse postorder from entry (nodes entry cannot
    reach go last) until a sweep changes nothing.
    """
    if use_def is None:
        use_def = UseDefTable(summaries)
    uses: dict[int, set[str]] = {}
    defs: dict[int, set[str]] = {}
    gen: dict[int, set[Definition]] = {}
    kill_vars: dict[int, set[str]] = {}

    for node_id, node in cfg.nodes.items():
        stmt = node.stmt
        if stmt is None or node.kind not in (STMT, PRED):
            uses[node_id] = set()
            defs[node_id] = set()
            gen[node_id] = set()
            kill_vars[node_id] = set()
            continue
        node_uses, node_defs = use_def.of(stmt)
        uses[node_id] = node_uses
        defs[node_id] = node_defs
        gen[node_id] = {(var, node_id) for var in node_defs}
        if _is_array_write(stmt):
            # Weak update: keeps earlier element definitions alive.
            kill_vars[node_id] = set()
        else:
            kill_vars[node_id] = set(node_defs)

    # Every variable has an initial definition at entry.
    all_vars: set[str] = set()
    for node_id in cfg.nodes:
        all_vars |= uses[node_id] | defs[node_id]
    entry_defs = {(var, -1) for var in all_vars}

    reach_in: dict[int, set[Definition]] = {n: set() for n in cfg.nodes}
    reach_out: dict[int, set[Definition]] = {n: set() for n in cfg.nodes}
    reach_in[cfg.entry] = set(entry_defs)
    reach_out[cfg.entry] = set(entry_defs)

    order = reverse_postorder(cfg.entry, cfg.successors)
    reached = set(order)
    order += [node_id for node_id in cfg.nodes if node_id not in reached]
    preds = {node_id: cfg.predecessors(node_id) for node_id in order}
    changed = True
    while changed:
        changed = False
        for node_id in order:
            if node_id != cfg.entry:
                incoming: set[Definition] = set()
                for pred_id in preds[node_id]:
                    incoming |= reach_out[pred_id]
                reach_in[node_id] = incoming
            killed = kill_vars[node_id]
            new_out = gen[node_id].union(
                (var, d) for (var, d) in reach_in[node_id] if var not in killed
            )
            if new_out != reach_out[node_id]:
                reach_out[node_id] = new_out
                changed = True

    return ReachingDefinitions(
        cfg=cfg,
        gen=gen,
        kill_vars=kill_vars,
        reach_in=reach_in,
        reach_out=reach_out,
        uses=uses,
        defs=defs,
    )


# --------------------------------------------------------------------------
# Region USED/DEFINED (the e-block logging sets, §5.1)
# --------------------------------------------------------------------------


def region_use_def(
    stmts: Iterable[ast.Stmt], summaries: Summaries, use_def: UseDefTable | None = None
) -> tuple[set[str], set[str]]:
    """Aggregate USED/DEFINED over all statements in a region.

    *stmts* should be the flattened statement list of the region (e.g. from
    :func:`repro.lang.ast.walk_statements`); nested call effects come from
    the summaries.
    """
    if use_def is None:
        use_def = UseDefTable(summaries)
    used: set[str] = set()
    defined: set[str] = set()
    for stmt in stmts:
        uses, defs = use_def.of(stmt)
        used |= uses
        defined |= defs
    return used, defined


def region_declared(stmts: Iterable[ast.Stmt]) -> set[str]:
    """Names declared inside the region (these never need prelogging)."""
    declared: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, ast.VarDecl):
            declared.add(stmt.name)
        elif isinstance(stmt, ast.Accept):
            declared.update(param.name for param in stmt.params)
    return declared
