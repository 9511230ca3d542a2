"""E-block construction (§5.4).

"The only condition for several consecutive lines of code to form an
e-block is that the entry point for an e-block must be well defined."

This module decides which program regions become emulation blocks and
computes their USED/DEFINED logging sets:

* every procedure is a candidate e-block (the natural choice),
* *leaf merging*: small leaf subroutines can be excluded, their logging
  inherited by callers ("the direct ancestor subroutines ... inherit the
  USED sets and the DEFINED sets of the leaf subroutines"),
* *loop blocks*: large ``while``/``for`` loops become their own e-blocks
  "so that the debugging phase can proceed without excessive time spent in
  re-executing the loops" — except a loop that contains a ``return``,
  whose exit a postlog cannot record.

Benchmark E10 sweeps these policy knobs to reproduce the paper's stated
execution-phase vs. debugging-phase trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..analysis.cfg import CFG
from ..analysis.dataflow import Summaries, UseDefTable, region_declared, region_use_def
from ..analysis.interproc import CallGraph
from ..analysis.liveness import Liveness, live_variables
from ..analysis.symbols import SymbolTable


def sorted_names(names) -> tuple[str, ...]:
    """*names* as a sorted tuple: the form of every logging set.

    Log entries build their ``values`` dicts by walking these sets.  A
    frozenset of strings walks in hash order, which ``PYTHONHASHSEED``
    changes from process to process, so the same run would save different
    bytes; sorting once, when the plan is built, costs logging nothing.
    """
    return tuple(sorted(names))


@dataclass(frozen=True)
class EBlockPolicy:
    """Tunable e-block construction policy (§5.4)."""

    #: leaf procedures with at most this many statements are merged into
    #: their callers instead of forming e-blocks (0 disables merging).
    merge_leaf_max_stmts: int = 0
    #: loops with at least this many statements become their own e-blocks
    #: (None disables loop blocks).
    loop_block_min_stmts: int | None = None
    #: never merge a procedure that performs synchronization — its sync
    #: units would lose their natural prelog boundaries.
    keep_sync_procs: bool = True
    #: procedures with at least this many statements are additionally split
    #: into chunk e-blocks of consecutive top-level statements ("we can act
    #: conservatively to construct several e-blocks out of such a large
    #: subroutine", §5.4).  None disables splitting.
    split_proc_min_stmts: int | None = None
    #: target statement count per chunk when splitting.
    split_chunk_stmts: int = 8
    #: refine loop/chunk prelogs with live-variable analysis: locals that
    #: are dead on block entry are not logged (smaller prelogs, same
    #: replay fidelity).
    live_prelogs: bool = False


@dataclass
class EBlock:
    """One emulation block with its compile-time logging sets."""

    block_id: int
    kind: str  # "proc" | "loop"
    proc_name: str  # owning (or defining) procedure
    node_id: int  # ProcDef node_id, or the loop statement's node_id
    params: tuple[str, ...] = ()  # proc blocks: parameter names in order
    # The four logging sets are sorted tuples (:func:`sorted_names`).
    #: local variables whose values the prelog must capture (loop blocks)
    prelog_locals: tuple[str, ...] = ()
    #: local variables whose values the postlog must capture (loop blocks)
    postlog_locals: tuple[str, ...] = ()
    shared_ref: tuple[str, ...] = ()  # shared USED (prelogged)
    shared_mod: tuple[str, ...] = ()  # shared DEFINED (postlogged)
    returns_value: bool = False
    #: chunk blocks: the node_ids of the top-level statements they cover
    stmt_node_ids: tuple[int, ...] = ()


def _stmt_count(node: ast.Node) -> int:
    return sum(
        1 for s in ast.walk_statements(node) if not isinstance(s, ast.Block)
    )


def select_proc_eblocks(
    program: ast.Program,
    call_graph: CallGraph,
    summaries: Summaries,
    policy: EBlockPolicy,
) -> set[str]:
    """Decide which procedures form e-blocks.

    ``main`` and every spawn target always do (they are process roots whose
    intervals anchor each process's log); merged procedures execute inline
    within the caller's interval.
    """
    spawn_targets: set[str] = set()
    for targets in call_graph.spawns.values():
        spawn_targets |= targets

    eblock_procs: set[str] = set()
    for proc in program.procs:
        name = proc.name
        if name == "main" or name in spawn_targets:
            eblock_procs.add(name)
            continue
        is_small_leaf = (
            policy.merge_leaf_max_stmts > 0
            and call_graph.is_leaf(name)
            and _stmt_count(proc.body) <= policy.merge_leaf_max_stmts
        )
        if is_small_leaf and policy.keep_sync_procs and summaries[name].has_sync:
            is_small_leaf = False
        if not is_small_leaf:
            eblock_procs.add(name)
    return eblock_procs


def _shared_split(names: set[str], table: SymbolTable, proc: str) -> set[str]:
    """The subset of *names* that are shared variables (not shadowed)."""
    local_names = set(table.locals.get(proc, ()))
    return {n for n in names if n in table.shared and n not in local_names}


@dataclass
class EBlockSet:
    """All e-blocks of a compiled program."""

    policy: EBlockPolicy
    blocks: dict[int, EBlock] = field(default_factory=dict)  # block_id -> EBlock
    by_node: dict[int, EBlock] = field(default_factory=dict)  # anchor node_id -> EBlock
    proc_blocks: dict[str, EBlock] = field(default_factory=dict)  # proc name -> EBlock
    loop_blocks: dict[int, EBlock] = field(default_factory=dict)  # loop node_id -> EBlock
    #: chunk anchor (first stmt node_id) -> EBlock
    chunk_blocks: dict[int, EBlock] = field(default_factory=dict)
    #: proc name -> body partition: (chunk EBlock or None, [top-level stmt
    #: node_ids]); None groups execute outside any chunk (return barriers)
    chunk_plan: dict[str, list[tuple[EBlock | None, list[int]]]] = field(
        default_factory=dict
    )
    merged_procs: set[str] = field(default_factory=set)

    def add(self, block: EBlock) -> None:
        self.blocks[block.block_id] = block
        self.by_node[block.node_id] = block
        if block.kind == "proc":
            self.proc_blocks[block.proc_name] = block
        elif block.kind == "loop":
            self.loop_blocks[block.node_id] = block
        else:
            self.chunk_blocks[block.node_id] = block

    def is_proc_eblock(self, proc_name: str) -> bool:
        return proc_name in self.proc_blocks


def build_eblocks(
    program: ast.Program,
    table: SymbolTable,
    call_graph: CallGraph,
    summaries: Summaries,
    cfgs: dict[str, CFG],
    policy: EBlockPolicy | None = None,
    use_def: UseDefTable | None = None,
) -> EBlockSet:
    """Construct every e-block of *program* under *policy*."""
    if policy is None:
        policy = EBlockPolicy()
    if use_def is None:
        use_def = UseDefTable(summaries)
    result = EBlockSet(policy=policy)
    eblock_procs = select_proc_eblocks(program, call_graph, summaries, policy)
    result.merged_procs = set(program.proc_names) - eblock_procs

    block_counter = 0
    for proc in program.procs:
        if proc.name in eblock_procs:
            block_counter += 1
            summary = summaries[proc.name]
            result.add(
                EBlock(
                    block_id=block_counter,
                    kind="proc",
                    proc_name=proc.name,
                    node_id=proc.node_id,
                    params=tuple(p.name for p in proc.params),
                    shared_ref=sorted_names(summary.ref),
                    shared_mod=sorted_names(summary.mod),
                    returns_value=proc.is_func,
                )
            )
        liveness: Liveness | None = None
        if policy.live_prelogs and (
            policy.loop_block_min_stmts is not None
            or policy.split_proc_min_stmts is not None
        ):
            liveness = live_variables(cfgs[proc.name], summaries, use_def)
        if policy.loop_block_min_stmts is not None:
            for stmt in ast.walk_statements(proc.body):
                if not isinstance(stmt, (ast.While, ast.For)):
                    continue
                if _stmt_count(stmt) < policy.loop_block_min_stmts:
                    continue
                if _has_return(stmt):
                    # A postlog cannot record that the loop returned, so,
                    # like a chunk barrier, the loop runs inside its
                    # procedure's interval.
                    continue
                block_counter += 1
                result.add(
                    _build_loop_block(block_counter, proc, stmt, table, use_def, liveness)
                )
        if (
            policy.split_proc_min_stmts is not None
            and proc.name in eblock_procs
            and _stmt_count(proc.body) >= policy.split_proc_min_stmts
        ):
            block_counter = _split_proc_into_chunks(
                result, block_counter, proc, table, use_def, policy, liveness
            )
    return result


def _live_filter(
    prelog_locals: set[str], liveness: Liveness | None, entry_stmt_node_id: int
) -> tuple[str, ...]:
    """Drop locals that are dead at the block's entry (live_prelogs)."""
    if liveness is None:
        return sorted_names(prelog_locals)
    return sorted_names(prelog_locals & liveness.live_at_stmt(entry_stmt_node_id))


def _has_return(stmt: ast.Stmt) -> bool:
    return any(isinstance(s, ast.Return) for s in ast.walk_statements(stmt))


def _build_chunk_block(
    block_id: int,
    proc: ast.ProcDef,
    stmts: list[ast.Stmt],
    table: SymbolTable,
    use_def: UseDefTable,
    liveness: Liveness | None = None,
) -> EBlock:
    """Logging sets for one chunk of consecutive top-level statements."""
    flat = [
        s
        for top in stmts
        for s in ast.walk_statements(top)
        if not isinstance(s, ast.Block)
    ]
    used, defined = region_use_def(flat, use_def.summaries, use_def)
    declared = region_declared(flat)
    local_names = set(table.locals.get(proc.name, ()))
    prelog_locals = (used & local_names) - declared
    return EBlock(
        block_id=block_id,
        kind="chunk",
        proc_name=proc.name,
        node_id=stmts[0].node_id,
        prelog_locals=_live_filter(prelog_locals, liveness, stmts[0].node_id),
        postlog_locals=sorted_names(defined & local_names),
        shared_ref=sorted_names(_shared_split(used, table, proc.name)),
        shared_mod=sorted_names(_shared_split(defined, table, proc.name)),
        stmt_node_ids=tuple(s.node_id for s in stmts),
    )


def _split_proc_into_chunks(
    result: EBlockSet,
    block_counter: int,
    proc: ast.ProcDef,
    table: SymbolTable,
    use_def: UseDefTable,
    policy: EBlockPolicy,
    liveness: Liveness | None = None,
) -> int:
    """Partition a large procedure body into chunk e-blocks (§5.4).

    Statements containing a ``return`` are *barriers*: they run outside any
    chunk, so a skipped chunk never hides a control transfer out of the
    procedure and replay can mirror the recorded control flow.
    """
    plan: list[tuple[EBlock | None, list[int]]] = []
    current: list[ast.Stmt] = []
    current_size = 0

    def flush() -> None:
        nonlocal current, current_size, block_counter
        if not current:
            return
        if len(current) == 1 and current_size <= 1:
            # A one-statement chunk logs more than it saves.
            plan.append((None, [current[0].node_id]))
        else:
            block_counter += 1
            block = _build_chunk_block(block_counter, proc, current, table, use_def, liveness)
            result.add(block)
            plan.append((block, list(block.stmt_node_ids)))
        current = []
        current_size = 0

    for stmt in proc.body.body:
        if _has_return(stmt):
            flush()
            plan.append((None, [stmt.node_id]))
            continue
        current.append(stmt)
        current_size += _stmt_count(stmt)
        if current_size >= policy.split_chunk_stmts:
            flush()
    flush()
    result.chunk_plan[proc.name] = plan
    return block_counter


def _build_loop_block(
    block_id: int,
    proc: ast.ProcDef,
    loop: ast.While | ast.For,
    table: SymbolTable,
    use_def: UseDefTable,
    liveness: Liveness | None = None,
) -> EBlock:
    """Compute the logging sets of one loop e-block."""
    stmts = [s for s in ast.walk_statements(loop) if not isinstance(s, ast.Block)]
    # For While/For the walk includes the loop node itself (its predicate
    # reads) and, for For, the init/step assignments.
    used, defined = region_use_def(stmts, use_def.summaries, use_def)
    declared = region_declared(stmts)
    local_names = set(table.locals.get(proc.name, ()))

    used_locals = (used & local_names) - declared
    defined_locals = defined & local_names  # declared-inside locals outlive the loop
    shared_ref = _shared_split(used, table, proc.name)
    shared_mod = _shared_split(defined, table, proc.name)

    # Liveness entry point: the loop predicate (While) / the init (For).
    entry_node_id = loop.init.node_id if isinstance(loop, ast.For) else loop.node_id

    return EBlock(
        block_id=block_id,
        kind="loop",
        proc_name=proc.name,
        node_id=loop.node_id,
        prelog_locals=_live_filter(used_locals, liveness, entry_node_id),
        postlog_locals=sorted_names(defined_locals),
        shared_ref=sorted_names(shared_ref),
        shared_mod=sorted_names(shared_mod),
    )
