"""Static effect analysis over compiled PCL bytecode.

This pass classifies every statement span of a lowered
:class:`~repro.vm.bytecode.Code` into a three-point effect lattice::

    LOCAL  <  SHARED  <  SYNC

* **LOCAL** — the span touches only process-private variables: no other
  process can observe it run, and it cannot make a blocked process
  runnable.
* **SHARED** — the span reads or writes a variable visible to other
  processes (the same site identity :mod:`repro.analysis.racecands`
  uses: expression node ids for reads, statement node ids for writes).
* **SYNC** — the span performs a synchronization operation (P/V, lock,
  channel send/recv, spawn/join, rendezvous).

A statement span is the set of instructions reachable from its ``PRE``
without crossing another statement boundary — a CFG walk over the flat
bytecode, so loop back-edges correctly charge the loop *condition* to
the span of the body's final statement (which is exactly what the
executor runs between those two preemption points).

The analysis is a diagnostic: ``ppd analyze`` and ``ppd disasm
--effects`` print it, and no run, replay or session question reads it.
Its SHARED site set contains every access site
:func:`~repro.analysis.racecands.collect_access_sites` finds (the test
suite asserts the containment), so it also cross-checks the AST walk
against what the lowered code can actually touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs import hooks as _obs
from ..vm import bytecode as bc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler.compile import CompiledProgram
    from .symbols import SymbolTable

__all__ = [
    "LOCAL",
    "SHARED",
    "SYNC",
    "CodeEffects",
    "ProgramEffects",
    "analyze_code",
    "analyze_program",
    "effect_max",
]

LOCAL = "local"
SHARED = "shared"
SYNC = "sync"

_RANK = {LOCAL: 0, SHARED: 1, SYNC: 2}


def effect_max(a: str, b: str) -> str:
    """Join on the LOCAL < SHARED < SYNC lattice."""
    return a if _RANK[a] >= _RANK[b] else b


#: Opcodes that perform a synchronization operation (always yield).
SYNC_OPS = frozenset(
    {
        bc.SEM_P,
        bc.SEM_V,
        bc.LOCK_ACQUIRE,
        bc.LOCK_RELEASE,
        bc.SEND,
        bc.SPAWN,
        bc.JOIN,
        bc.REPLY,
        bc.RECV,
        bc.CALL_ENTRY,
        bc.ACCEPT_ENTER,
        bc.ACCEPT_EXIT,
    }
)

#: Opcodes that end a statement span by unwinding or finishing the frame.
TERMINAL_OPS = frozenset(
    {
        bc.RETURN_VALUE,
        bc.RETURN_NONE,
        bc.BREAK,
        bc.CONTINUE,
        bc.PROC_RETURN,
        bc.ROOT_RETURN,
    }
)

#: Variable-access opcodes: opcode -> (is_write, site-id operand index).
#: Reads carry the expression node id directly; writes carry the
#: statement node (matching :class:`~repro.analysis.racecands.AccessSite`).
_ACCESS_OPS = {
    bc.LOAD: False,
    bc.LOAD_ELEM: False,
    bc.STORE: True,
    bc.STORE_ELEM: True,
}


def _successors(index: int, ins: tuple) -> tuple[int, ...]:
    """Static successor indexes of one instruction (all machine types:
    the replay engine may take a loop/chunk skip edge the live machine
    never does, so both are included)."""
    op = ins[0]
    if op == bc.JUMP:
        return (ins[1],)
    if op in (bc.JUMP_IF_FALSE, bc.SC_AND, bc.SC_OR):
        return (index + 1, ins[1])
    if op == bc.LOOP_ENTER:
        return (index + 1, ins[3], ins[4])
    if op == bc.CHUNK_ENTER:
        return (index + 1, ins[2])
    if op in TERMINAL_OPS:
        return ()
    return (index + 1,)


def _shared_name(name: str, owner: str, table: "SymbolTable") -> bool:
    """Does *name* in procedure *owner* resolve to a shared variable?

    Locals shadow shared names only once materialised, so a name that is
    declared shared anywhere stays SHARED here even when a local of the
    same name exists (the conservative direction: a use before the
    local's declaration really does read the shared variable).
    """
    return name in table.shared


@dataclass(frozen=True)
class StmtEffect:
    """Classification of one statement boundary inside a Code."""

    pre_index: int
    node_id: int
    stmt_label: str
    effect: str  # LOCAL | SHARED | SYNC


@dataclass
class CodeEffects:
    """Per-:class:`~repro.vm.bytecode.Code` effect summary."""

    name: str
    kind: str
    owner: str  # owning procedure (names resolve against its locals)
    stmts: list[StmtEffect] = field(default_factory=list)
    #: (proc, node_id, var, write) for every shared access in this code
    shared_sites: frozenset[tuple[str, int, str, bool]] = frozenset()

    def counts(self) -> dict[str, int]:
        out = {LOCAL: 0, SHARED: 0, SYNC: 0}
        for stmt in self.stmts:
            out[stmt.effect] += 1
        return out


def _op_effect(
    ins: tuple, owner: str, table: "SymbolTable", summaries: dict[str, str]
) -> str:
    """Effect of a single instruction, with user calls resolved through
    the interprocedural *summaries* map."""
    op = ins[0]
    if op in SYNC_OPS:
        return SYNC
    write = _ACCESS_OPS.get(op)
    if write is not None and _shared_name(ins[1], owner, table):
        return SHARED
    if op == bc.CALL_USER:
        procdef = ins[2]
        if procdef is None:
            return SYNC  # unknown callee: assume the worst
        return summaries.get(procdef.name, SYNC)
    return LOCAL


def _span_indexes(code: bc.Code, pre_index: int) -> set[int]:
    """Instruction indexes reachable from *pre_index* without crossing
    another statement boundary."""
    instrs = code.instrs
    n = len(instrs)
    seen: set[int] = set()
    work = [pre_index + 1]
    while work:
        index = work.pop()
        if index in seen or index >= n:
            continue
        ins = instrs[index]
        if ins[0] == bc.PRE:
            continue  # the next preemption point; its span is its own
        seen.add(index)
        work.extend(_successors(index, ins))
    return seen


def analyze_code(
    code: bc.Code,
    owner: str,
    table: "SymbolTable",
    summaries: dict[str, str],
) -> CodeEffects:
    """Classify every statement span of one lowered code object."""
    instrs = code.instrs
    stmts: list[StmtEffect] = []
    sites: set[tuple[str, int, str, bool]] = set()

    for index, ins in enumerate(instrs):
        write = _ACCESS_OPS.get(ins[0])
        if write is not None and _shared_name(ins[1], owner, table):
            node_id = ins[2].node_id if write else ins[2]
            sites.add((owner, node_id, ins[1], write))

    for pre_index, ins in enumerate(instrs):
        if ins[0] != bc.PRE:
            continue
        stmt = ins[1]
        effect = LOCAL
        for index in _span_indexes(code, pre_index):
            effect = effect_max(effect, _op_effect(instrs[index], owner, table, summaries))
        stmts.append(
            StmtEffect(
                pre_index=pre_index,
                node_id=stmt.node_id,
                stmt_label=getattr(stmt, "stmt_label", ""),
                effect=effect,
            )
        )

    return CodeEffects(
        name=code.name,
        kind=code.kind,
        owner=owner,
        stmts=stmts,
        shared_sites=frozenset(sites),
    )


def _proc_summaries(
    codes: dict[str, bc.Code], table: "SymbolTable"
) -> dict[str, str]:
    """Interprocedural effect summary per procedure, to a fixpoint.

    ``summary(p)`` is the join over every instruction in ``p``'s body,
    with user calls resolving to the callee's summary (recursion starts
    at LOCAL and rises monotonically, so iteration terminates).
    """
    summaries = {name: LOCAL for name in codes}
    changed = True
    while changed:
        changed = False
        for name, code in codes.items():
            effect = LOCAL
            for ins in code.instrs:
                effect = effect_max(effect, _op_effect(ins, name, table, summaries))
                if effect == SYNC:
                    break
            if effect != summaries[name]:
                summaries[name] = effect
                changed = True
    return summaries


@dataclass
class ProgramEffects:
    """Whole-program effect summaries."""

    #: per-procedure code effects, by procedure name
    procs: dict[str, CodeEffects] = field(default_factory=dict)
    #: interprocedural summary effect per procedure
    summaries: dict[str, str] = field(default_factory=dict)
    #: every shared access site across all procedures
    shared_sites: frozenset[tuple[str, int, str, bool]] = frozenset()

    def counts(self) -> dict[str, int]:
        out = {LOCAL: 0, SHARED: 0, SYNC: 0}
        for effects in self.procs.values():
            for effect, count in effects.counts().items():
                out[effect] += count
        return out


def analyze_program(compiled: "CompiledProgram") -> ProgramEffects:
    """Analyze every procedure of a compiled program (not cached: only
    ``ppd analyze`` and ``ppd disasm --effects``/``--json`` ask)."""
    program = compiled.program
    table = compiled.table
    program_code = compiled.vm_code()
    codes = {proc.name: program_code.proc(proc.name) for proc in program.procs}
    summaries = _proc_summaries(codes, table)

    procs: dict[str, CodeEffects] = {}
    all_sites: set[tuple[str, int, str, bool]] = set()
    for name, code in codes.items():
        effects = analyze_code(code, name, table, summaries)
        procs[name] = effects
        all_sites.update(effects.shared_sites)

    result = ProgramEffects(
        procs=procs,
        summaries=summaries,
        shared_sites=frozenset(all_sites),
    )
    if _obs.enabled:
        counts = result.counts()
        _obs.on_effects(
            procs=len(procs),
            local=counts[LOCAL],
            shared=counts[SHARED],
            sync=counts[SYNC],
        )
    return result
