"""Structural bytecode verifier for lowered PCL code objects.

Every :class:`~repro.vm.bytecode.Code` the compiler produces is checked
against four invariants before any executor runs it:

1. **Jump targets in bounds** — every jump operand (including the
   loop/chunk skip edges the replay engine may take) names a real
   instruction, and no path falls off the end of the instruction list.
2. **Stack-depth balance** — a dataflow pass assigns every reachable
   instruction a unique operand-stack depth; pops never underflow, the
   depths of all predecessors agree, and the depth at every statement
   boundary (``PRE``) is zero — the executor's contract that statements
   never leak operands to each other.
3. **E-block boundaries reachable** — every ``LOOP_ENTER``/``LOOP_EXIT``
   /``CHUNK_ENTER``/``CHUNK_EXIT``/``ACCEPT_ENTER``/``ACCEPT_EXIT`` is
   reachable from the entry point, so the instrumentation plan baked
   into the code can actually fire.
4. **One yield site per preemption point** — each statement object owns
   exactly one ``PRE``, the ``stmt_at`` table agrees with it, and the
   table covers every instruction, so no preemption point is duplicated
   or dropped.

Violations raise a typed :class:`VerifyError` subclass naming the code
object and instruction index — run at compile time (every lowering) and
by ``ppd analyze`` / ``ppd disasm``.
"""

from __future__ import annotations

from . import bytecode as bc

__all__ = [
    "VerifyError",
    "JumpTargetError",
    "StackDepthError",
    "UnreachableBlockError",
    "YieldSiteError",
    "verify_code",
    "verify_program",
]


class VerifyError(Exception):
    """A lowered code object violates a structural invariant."""

    def __init__(self, code_name: str, index: int, message: str) -> None:
        self.code_name = code_name
        self.index = index
        super().__init__(f"{code_name}@{index}: {message}")


class JumpTargetError(VerifyError):
    """A jump operand points outside the instruction list (or execution
    can fall off the end of it)."""


class StackDepthError(VerifyError):
    """Operand-stack depths underflow, disagree between predecessors,
    or are non-zero at a statement boundary."""


class UnreachableBlockError(VerifyError):
    """An e-block boundary instruction is unreachable from entry."""


class YieldSiteError(VerifyError):
    """A statement has zero or multiple yield sites, or the ``stmt_at``
    table disagrees with the instruction stream."""


#: E-block boundary opcodes that must stay reachable (invariant 3).
_BLOCK_OPS = frozenset(
    {
        bc.LOOP_ENTER,
        bc.LOOP_EXIT,
        bc.CHUNK_ENTER,
        bc.CHUNK_EXIT,
        bc.ACCEPT_ENTER,
        bc.ACCEPT_EXIT,
    }
)

_TERMINALS = frozenset(
    {
        bc.RETURN_VALUE,
        bc.RETURN_NONE,
        bc.BREAK,
        bc.CONTINUE,
        bc.PROC_RETURN,
        bc.ROOT_RETURN,
    }
)

#: Fixed (pops, pushes) per opcode; argc-dependent opcodes are handled
#: inline in :func:`_stack_effect`.
_FIXED_EFFECTS = {
    bc.PRE: (0, 0),
    bc.CONST: (0, 1),
    bc.LOAD: (0, 1),
    bc.BINOP: (2, 1),
    bc.STORE: (1, 0),
    bc.JUMP: (0, 0),
    bc.JUMP_IF_FALSE: (1, 0),
    bc.PRED: (1, 1),
    bc.BEGIN_READS: (0, 0),
    bc.POST: (0, 0),
    bc.LOAD_ELEM: (1, 1),
    bc.STORE_ELEM: (2, 0),
    bc.UNOP: (1, 1),
    bc.TO_BOOL: (1, 1),
    bc.DISCARD: (1, 0),
    bc.DECL_ARRAY: (0, 0),
    bc.DECL_INIT: (1, 0),
    bc.DECL_DEFAULT: (0, 0),
    bc.RETURN_VALUE: (1, 0),
    bc.RETURN_NONE: (0, 0),
    bc.BREAK: (0, 0),
    bc.CONTINUE: (0, 0),
    bc.LOOP_ENTER: (0, 0),
    bc.LOOP_EXIT: (0, 0),
    bc.CHUNK_ENTER: (0, 0),
    bc.CHUNK_EXIT: (0, 0),
    bc.ACCEPT_ENTER: (0, 0),
    bc.ACCEPT_EXIT: (0, 0),
    bc.SEM_P: (0, 0),
    bc.SEM_V: (0, 0),
    bc.LOCK_ACQUIRE: (0, 0),
    bc.LOCK_RELEASE: (0, 0),
    bc.SEND: (1, 0),
    bc.JOIN: (0, 0),
    bc.ASSERT: (1, 0),
    bc.RECV: (0, 1),
    bc.CALL_BEGIN: (0, 0),
    bc.ARG_MARK: (0, 0),
    bc.ARG_CAPTURE: (0, 0),
    bc.PROC_RETURN: (0, 0),
    bc.ROOT_RETURN: (0, 0),
}


def _stack_effect(ins: tuple) -> tuple[int, int]:
    """(pops, pushes) of one instruction on the fallthrough path."""
    op = ins[0]
    fixed = _FIXED_EFFECTS.get(op)
    if fixed is not None:
        return fixed
    if op in (bc.SPAWN, bc.PRINT):
        return ins[2], 0
    if op in (bc.CALL_ENTRY, bc.CALL_PURE):
        return ins[2], 1
    if op == bc.INPUT:
        return ins[2], 1
    if op == bc.REPLY:
        return (1 if ins[2] else 0), 0
    if op == bc.CALL_USER:
        return len(ins[1].args), 1
    if op in (bc.SC_AND, bc.SC_OR):
        # Handled specially (asymmetric successors); fallthrough shape.
        return 1, 0
    raise AssertionError(f"no stack effect for opcode {op}")  # pragma: no cover


def _jump_operands(ins: tuple) -> tuple[int, ...]:
    op = ins[0]
    if op in (bc.JUMP, bc.JUMP_IF_FALSE, bc.SC_AND, bc.SC_OR):
        return (ins[1],)
    if op == bc.LOOP_ENTER:
        return (ins[3], ins[4])
    if op == bc.CHUNK_ENTER:
        return (ins[2],)
    return ()


def verify_code(code: bc.Code) -> bc.Code:
    """Check all four invariants, returning *code* unchanged on success."""
    instrs = code.instrs
    n = len(instrs)
    name = code.name

    if len(code.stmt_at) != n:
        raise YieldSiteError(
            name, n, f"stmt_at table has {len(code.stmt_at)} entries for {n} instrs"
        )
    if n == 0:
        raise JumpTargetError(name, 0, "empty instruction list")

    # Invariant 1: every jump operand names a real instruction.
    for index, ins in enumerate(instrs):
        for target in _jump_operands(ins):
            if not isinstance(target, int) or not (0 <= target < n):
                raise JumpTargetError(
                    name,
                    index,
                    f"{bc.OPNAMES[ins[0]]} target {target!r} out of bounds [0, {n})",
                )

    # Invariant 4: one yield site per statement, stmt_at agreement.
    pre_of_stmt: dict[int, int] = {}
    for index, ins in enumerate(instrs):
        if ins[0] == bc.PRE:
            stmt = ins[1]
            previous = pre_of_stmt.get(id(stmt))
            if previous is not None:
                raise YieldSiteError(
                    name,
                    index,
                    f"statement {getattr(stmt, 'stmt_label', '?')} has a second "
                    f"yield site (first at {previous})",
                )
            pre_of_stmt[id(stmt)] = index
            if code.stmt_at[index] is not stmt:
                raise YieldSiteError(
                    name, index, "stmt_at disagrees with the PRE operand"
                )

    # Invariant 2: stack-depth dataflow from entry.
    depth_at: dict[int, int] = {0: 0}
    work = [0]
    while work:
        index = work.pop()
        depth = depth_at[index]
        ins = instrs[index]
        op = ins[0]
        if op == bc.PRE and depth != 0:
            raise StackDepthError(
                name, index, f"statement boundary at stack depth {depth} (want 0)"
            )
        pops, pushes = _stack_effect(ins)
        if depth < pops:
            raise StackDepthError(
                name, index, f"{bc.OPNAMES[op]} pops {pops} at depth {depth}"
            )
        after = depth - pops + pushes
        if op in (bc.SC_AND, bc.SC_OR):
            # Short-circuit: pops 1 always; the taken edge re-pushes the
            # result, the fallthrough edge leaves it to the right operand.
            edges = [(index + 1, after), (ins[1], after + 1)]
        elif op == bc.JUMP:
            edges = [(ins[1], after)]
        elif op == bc.JUMP_IF_FALSE:
            edges = [(index + 1, after), (ins[1], after)]
        elif op == bc.LOOP_ENTER:
            edges = [(index + 1, after), (ins[3], after), (ins[4], after)]
        elif op == bc.CHUNK_ENTER:
            edges = [(index + 1, after), (ins[2], after)]
        elif op in _TERMINALS:
            edges = []
        else:
            edges = [(index + 1, after)]
        for successor, successor_depth in edges:
            if successor >= n:
                raise JumpTargetError(
                    name, index, f"{bc.OPNAMES[op]} falls off the end of the code"
                )
            known = depth_at.get(successor)
            if known is None:
                depth_at[successor] = successor_depth
                work.append(successor)
            elif known != successor_depth:
                raise StackDepthError(
                    name,
                    successor,
                    f"predecessors disagree on stack depth ({known} vs "
                    f"{successor_depth})",
                )

    # Invariant 3: every e-block boundary is reachable from entry.
    for index, ins in enumerate(instrs):
        if ins[0] in _BLOCK_OPS and index not in depth_at:
            raise UnreachableBlockError(
                name, index, f"{bc.OPNAMES[ins[0]]} unreachable from entry"
            )

    return code


def verify_program(compiled) -> dict[str, bc.Code]:
    """Verify every procedure of a compiled program; returns the codes."""
    program_code = compiled.vm_code()
    return {
        proc.name: verify_code(program_code.proc(proc.name))
        for proc in compiled.program.procs
    }
