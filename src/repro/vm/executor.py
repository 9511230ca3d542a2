"""The PCL bytecode executor: a trampolined dispatch loop.

:class:`VMExec` executes one process for every :class:`Machine`: the
logged run (the paper's object code) and e-block replay (the emulation
package) both drive it through the same ``run_process`` /
``exec_proc_body`` / ``exec_stmt`` generator surface and yield protocol.

A tree walker would suspend by threading a ``yield from`` chain through
one Python generator per active AST node; the VM instead keeps explicit
:class:`_VMFrame` records (code, instruction pointer, operand stack,
open block entries) and runs them all from a **single** dispatch
generator.  A preemption point is a plain ``yield`` in the loop; every
PCL call pushes a frame instead of recursing, so resuming a deeply
nested program costs O(1) Python frames instead of O(depth).  Replay
runs on the same trampoline: the machine's ``maybe_skip_call`` hook
either hands back the postlog that stands in for a skipped e-block
call, or lets the call push its frame like any other.

Parity contract: every observable effect — the order of scheduler
yields, ``process.steps`` increments, log appends, trace events and
their ``reads`` lists, error messages and attached sites — matches the
reference tree walker the test suite keeps as its differential oracle.
The block-entry list per frame replaces the walker's ``try/finally``
nesting: ``break``/``continue``/``return`` and escaping exceptions
unwind it innermost-first, running the same ``on_loop_exit`` /
``on_chunk_exit`` / ``end_accept`` hooks its ``finally`` clauses would.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..lang import ast
from ..lang.pretty import expr_to_str
from ..runtime.errors import AssertionFailure, PCLRuntimeError
from ..runtime.process import Frame, Process
from ..runtime.tracing import (
    EV_ASSERT,
    EV_CALL,
    EV_ENTER,
    EV_INPUT,
    EV_PRED,
    EV_PRINT,
    EV_RET,
    EV_STMT,
)
from ..runtime.values import (
    PCLArray,
    apply_binary,
    apply_unary,
    call_pure_builtin,
    default_value,
    format_value,
)
from . import bytecode as bc

#: Maximum PCL call depth.  A PCL call costs a trampoline frame, not a
#: Python one, so this bounds a runaway recursion's memory; the limit's
#: failure message is part of the persisted record, so the value must
#: not change.
MAX_CALL_DEPTH = 1000


#: Block-entry kinds (first element of a block tuple).
_LOOP = 0
_CHUNK = 1
_ACCEPT = 2
# Block entry layout: (kind, stmt, block, interval_id, stack_depth,
#                      continue_target, exit_target)

#: Unwind actions produced by the dispatch loop.
_RETURN = 0
_BREAK = 1
_CONTINUE = 2


class _VMFrame:
    """One activation: a procedure body or a replay-root statement."""

    __slots__ = ("code", "stack", "blocks", "ip", "rframe", "procdef", "call_uid", "interval_id")

    def __init__(
        self,
        code: bc.Code,
        rframe: Frame,
        procdef: Optional[ast.ProcDef],
        call_uid: int,
        interval_id: int,
    ) -> None:
        self.code = code
        self.stack: list[Any] = []
        self.blocks: list[tuple] = []
        self.ip = 0
        self.rframe = rframe
        self.procdef = procdef
        self.call_uid = call_uid
        self.interval_id = interval_id


class VMExec:
    """Executes one process of a compiled program on the bytecode VM."""

    def __init__(self, machine, process: Process) -> None:
        self.machine = machine
        self.process = process
        self.program = machine.compiled.program
        self.table = machine.compiled.table
        #: read buffer for the statement being traced: (def key, def uid).
        #: Deliberately the same mutable-rebinding discipline as the
        #: reference walker's, including its interactions with in-flight
        #: argument marks — parity over elegance.
        self._reads: list[tuple[str, int]] = []
        self._frame_uid_counter = 0
        self._before_hook = machine.before_stmt if machine.hooks_needed else None
        self._sync_prelog_sites = machine.sync_prelog_sites
        self._tracer = machine.tracer
        self._code = machine.compiled.vm_code()
        self._marks: list[int] = []
        self._arg_reads: list[list[list[tuple[str, int]]]] = []

    # ------------------------------------------------------------------
    # Entry points (the generator surface Machine and replay drive)
    # ------------------------------------------------------------------

    def run_process(self, procdef: ast.ProcDef, args: list[Any]) -> Generator:
        """The top-level generator of this process."""
        yield from self.exec_proc_body(procdef, args, call_node_id=0, call_uid=-1)

    def exec_proc_body(
        self,
        procdef: ast.ProcDef,
        args: list[Any],
        call_node_id: int,
        call_uid: int,
    ) -> Generator:
        """Execute a procedure body, returning ``(retval, ret_uid)``."""
        frames: list[_VMFrame] = []
        self._push_frame(frames, procdef, args, call_node_id, call_uid)
        result = yield from self._run(frames)
        return result

    def exec_stmt(self, stmt: ast.Stmt) -> Generator:
        """Execute one statement against the current frame (replay roots)."""
        frame = _VMFrame(self._code.stmt(stmt), self.process.frames[-1], None, -1, -1)
        yield from self._run([frame])

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------

    def _push_frame(
        self,
        frames: list[_VMFrame],
        procdef: ast.ProcDef,
        args: list[Any],
        call_node_id: int,
        call_uid: int,
    ) -> None:
        machine = self.machine
        process = self.process
        if len(args) != len(procdef.params):
            raise PCLRuntimeError(
                f"{procdef.name}: expected {len(procdef.params)} args, got {len(args)}"
            )
        if len(process.frames) >= MAX_CALL_DEPTH:
            raise PCLRuntimeError(
                f"call depth exceeded {MAX_CALL_DEPTH} (runaway recursion "
                f"in {procdef.name!r}?)"
            )
        frame = Frame(proc_name=procdef.name, call_node_id=call_node_id)
        self._frame_uid_counter += 1
        frame.uid = self._frame_uid_counter * 1000003 + process.pid
        for param, value in zip(procdef.params, args):
            frame.vars[param.name] = value
        process.frames.append(frame)
        interval_id = machine.on_proc_entry(process, procdef, args)
        if self._tracer is not None:
            event = machine.emit_trace(
                process,
                kind=EV_ENTER,
                node_id=procdef.node_id,
                var=procdef.name,
                call_uid=call_uid,
            )
            frame.enter_uid = event.uid
            machine.bind_pending_syncs(process, event.uid)
            for param in procdef.params:
                frame.def_events[param.name] = event.uid
        frames.append(
            _VMFrame(self._code.proc(procdef.name), frame, procdef, call_uid, interval_id)
        )

    def _deliver(
        self,
        frames: list[_VMFrame],
        callee: _VMFrame,
        value: Any,
        ret_uid: int,
    ) -> Optional[tuple[Any, int]]:
        """Hand a finished callee's value back; bottom frame ends the run."""
        if not frames:
            return value, ret_uid
        procdef = callee.procdef
        frames[-1].stack.append(value)
        if self._tracer is not None and procdef.is_func:
            dep_uid = ret_uid if ret_uid >= 0 else callee.call_uid
            self._reads.append((f"%0:{procdef.name}", dep_uid))
        return None

    # ------------------------------------------------------------------
    # Unwinding (the reference walker's try/finally nesting, made explicit)
    # ------------------------------------------------------------------

    def _attach_innermost(self, frames: list[_VMFrame], error: BaseException) -> None:
        """Attach the error site of the innermost active statement."""
        for vframe in reversed(frames):
            stmt = vframe.code.stmt_at[vframe.ip]
            if stmt is not None:
                self.machine.attach_error_site(error, stmt, self.process)
                return

    def _run_block_exit(self, entry: tuple) -> Generator:
        """Run one block entry's exit hook (a ``finally`` equivalent)."""
        kind = entry[0]
        if kind == _LOOP:
            self.machine.on_loop_exit(self.process, entry[1], entry[2], entry[3])
        elif kind == _ACCEPT:
            yield from self.machine.end_accept(self.process, entry[1].node_id)
        else:
            self.machine.on_chunk_exit(self.process, entry[2], entry[3])

    def _escalate(
        self, frames: list[_VMFrame], entry: tuple, error: BaseException
    ) -> Generator:
        """An exit hook raised: attach a site and switch to error unwinding."""
        if isinstance(error, PCLRuntimeError):
            if entry[1] is not None:
                self.machine.attach_error_site(error, entry[1], self.process)
            else:
                self._attach_innermost(frames, error)
        yield from self._unwind_error(frames, error)

    def _unwind_error(self, frames: list[_VMFrame], error: BaseException) -> Generator:
        """Unwind everything, running exit hooks, then re-raise.

        Matches exception propagation through the reference walker's nested
        generators: loop/chunk/accept ``finally`` bodies run innermost
        first; procedure epilogues (``on_proc_exit``, the frame pop) are
        *not* ``finally``-protected there and are skipped here too.  An
        exit hook that raises replaces the in-flight exception, exactly
        like a raising ``finally``.
        """
        while frames:
            vframe = frames.pop()
            blocks = vframe.blocks
            while blocks:
                entry = blocks.pop()
                try:
                    yield from self._run_block_exit(entry)
                except BaseException as new_error:  # noqa: BLE001 - finally semantics
                    if isinstance(new_error, PCLRuntimeError):
                        if entry[1] is not None:
                            self.machine.attach_error_site(
                                new_error, entry[1], self.process
                            )
                        else:
                            self._attach_innermost(frames, new_error)
                    error = new_error
        raise error

    def _unwind_return(
        self, frames: list[_VMFrame], value: Any, ret_uid: int
    ) -> Generator:
        """Close the returning procedure frame's blocks and run its epilogue.

        A ``return`` always sits in a procedure frame: no e-block that a
        replay enters as a root statement contains one.
        """
        vframe = frames[-1]
        blocks = vframe.blocks
        while blocks:
            entry = blocks.pop()
            try:
                yield from self._run_block_exit(entry)
            except BaseException as error:  # noqa: BLE001 - finally semantics
                yield from self._escalate(frames, entry, error)
        frames.pop()
        try:
            self.machine.on_proc_exit(self.process, vframe.procdef, vframe.interval_id, value)
        except BaseException as error:  # noqa: BLE001
            if isinstance(error, PCLRuntimeError):
                self._attach_innermost(frames, error)
            yield from self._unwind_error(frames, error)
        self.process.frames.pop()
        return self._deliver(frames, vframe, value, ret_uid)

    def _unwind_loop(self, frames: list[_VMFrame], want_continue: bool) -> Generator:
        """Unwind to the innermost loop entry of the current frame (the
        compiler rejects ``break``/``continue`` outside a loop); returns
        that entry."""
        blocks = frames[-1].blocks
        while True:
            entry = blocks[-1]
            if entry[0] == _LOOP:
                if want_continue:
                    return entry
                blocks.pop()
                try:
                    self.machine.on_loop_exit(self.process, entry[1], entry[2], entry[3])
                except BaseException as error:  # noqa: BLE001
                    yield from self._escalate(frames, entry, error)
                return entry
            blocks.pop()
            try:
                yield from self._run_block_exit(entry)
            except BaseException as error:  # noqa: BLE001
                yield from self._escalate(frames, entry, error)

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def _run(self, frames: list[_VMFrame]) -> Generator:
        """Trampoline over *frames* until the bottom frame finishes.

        Returns ``(retval, ret_uid)`` for procedure roots, ``None`` for
        replay-root statements.
        """
        machine = self.machine
        process = self.process
        tracer = self._tracer
        emit_trace = machine.emit_trace
        before_hook = self._before_hook
        sites = self._sync_prelog_sites
        shared = self.table.shared
        proc_locals = self.table.locals
        result = None

        while frames:
            vframe = frames[-1]
            instrs = vframe.code.instrs
            stack = vframe.stack
            rframe = vframe.rframe
            fvars = rframe.vars
            ip = vframe.ip
            action: Optional[tuple] = None
            try:
                while True:
                    ins = instrs[ip]
                    op = ins[0]
                    if op == 0:  # PRE — statement boundary
                        yield
                        process.steps += 1
                        segment = process.current_segment
                        if segment is not None:
                            segment.step_count += 1
                        if before_hook is not None:
                            before_hook(process, ins[1])
                        ip += 1
                    elif op == 1:  # CONST
                        stack.append(ins[1])
                        ip += 1
                    elif op == 2:  # LOAD
                        name = ins[1]
                        if name in fvars:
                            if tracer is not None:
                                self._reads.append(
                                    (name, rframe.def_events.get(name, -1))
                                )
                            stack.append(fvars[name])
                        elif name in shared:
                            yield  # shared access is a preemption point
                            value = machine.read_shared(process, name, ins[2])
                            if tracer is not None:
                                self._reads.append((name, machine.shared_def_uid(name)))
                            stack.append(value)
                        else:
                            raise PCLRuntimeError(
                                f"read of undefined variable {name!r}"
                            )
                        ip += 1
                    elif op == 3:  # BINOP
                        bop = ins[1]
                        right = stack.pop()
                        left = stack[-1]
                        # Exact-int fast path; identical to apply_binary for
                        # these operators when neither operand is a bool.
                        if type(left) is int and type(right) is int:
                            if bop == "+":
                                stack[-1] = left + right
                            elif bop == "-":
                                stack[-1] = left - right
                            elif bop == "*":
                                stack[-1] = left * right
                            elif bop == "<":
                                stack[-1] = left < right
                            elif bop == "<=":
                                stack[-1] = left <= right
                            elif bop == ">":
                                stack[-1] = left > right
                            elif bop == ">=":
                                stack[-1] = left >= right
                            elif bop == "==":
                                stack[-1] = left == right
                            elif bop == "!=":
                                stack[-1] = left != right
                            else:
                                stack[-1] = apply_binary(bop, left, right)
                        else:
                            stack[-1] = apply_binary(bop, left, right)
                        ip += 1
                    elif op == 4:  # STORE
                        name = ins[1]
                        stmt = ins[2]
                        value = stack.pop()
                        reads = self._reads
                        self._reads = []
                        if name in fvars:
                            fvars[name] = value
                        elif name not in shared and name in proc_locals.get(
                            rframe.proc_name, ()
                        ):
                            # First write to a declared local materialises it.
                            fvars[name] = value
                        elif name in shared:
                            yield
                            machine.write_shared(process, name, value, stmt.node_id)
                        else:
                            raise PCLRuntimeError(
                                f"write to undefined variable {name!r}"
                            )
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=name,
                                value=value,
                                reads=reads,
                            )
                            if name in fvars:
                                rframe.def_events[name] = event.uid
                            else:
                                machine.note_shared_def(name, name, event.uid)
                        ip += 1
                    elif op == 5:  # JUMP
                        ip = ins[1]
                    elif op == 6:  # JUMP_IF_FALSE
                        if stack.pop():
                            ip += 1
                        else:
                            ip = ins[1]
                    elif op == 7:  # PRED
                        stmt = ins[1]
                        value = stack.pop()
                        reads = self._reads
                        self._reads = []
                        outcome = True if value else False
                        if tracer is not None:
                            emit_trace(
                                process,
                                kind=EV_PRED,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                value=outcome,
                                reads=reads,
                                label="true" if outcome else "false",
                            )
                        stack.append(outcome)
                        ip += 1
                    elif op == 8:  # BEGIN_READS
                        self._reads = []
                        ip += 1
                    elif op == 9:  # POST — sync-unit prelog site (§5.5)
                        stmt = ins[1]
                        if stmt.node_id in sites:
                            machine.after_stmt(process, stmt)
                        ip += 1
                    elif op == 10:  # LOAD_ELEM
                        name = ins[1]
                        index = stack.pop()
                        if name in fvars:
                            array = fvars[name]
                            if not isinstance(array, PCLArray):
                                raise PCLRuntimeError(f"{name!r} is not an array")
                            value = array.get(index)
                            if tracer is not None:
                                key = f"{name}[{int(index)}]"
                                uid = rframe.def_events.get(
                                    key, rframe.def_events.get(name, -1)
                                )
                                self._reads.append((key, uid))
                            stack.append(value)
                        elif name in shared:
                            yield
                            value = machine.read_shared_elem(
                                process, name, index, ins[2]
                            )
                            if tracer is not None:
                                key = f"{name}[{int(index)}]"
                                self._reads.append(
                                    (key, machine.shared_def_uid(key, name))
                                )
                            stack.append(value)
                        else:
                            raise PCLRuntimeError(f"read of undefined array {name!r}")
                        ip += 1
                    elif op == 11:  # STORE_ELEM
                        name = ins[1]
                        stmt = ins[2]
                        index = stack.pop()
                        value = stack.pop()
                        reads = self._reads
                        self._reads = []
                        if name in fvars:
                            array = fvars[name]
                            if not isinstance(array, PCLArray):
                                raise PCLRuntimeError(f"{name!r} is not an array")
                            array.set(index, value)
                        elif name in shared:
                            yield
                            machine.write_shared_elem(
                                process, name, index, value, stmt.node_id
                            )
                        else:
                            raise PCLRuntimeError(
                                f"write to undefined array {name!r}"
                            )
                        if tracer is not None:
                            written = f"{name}[{int(index)}]"
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=written,
                                value=value,
                                reads=reads,
                            )
                            if name in fvars:
                                rframe.def_events[written] = event.uid
                            else:
                                machine.note_shared_def(written, name, event.uid)
                        ip += 1
                    elif op == 12:  # UNOP
                        stack[-1] = apply_unary(ins[1], stack[-1])
                        ip += 1
                    elif op == 13:  # SC_AND
                        if stack.pop():
                            ip += 1
                        else:
                            stack.append(False)
                            ip = ins[1]
                    elif op == 14:  # SC_OR
                        if stack.pop():
                            stack.append(True)
                            ip = ins[1]
                        else:
                            ip += 1
                    elif op == 15:  # TO_BOOL
                        stack[-1] = True if stack[-1] else False
                        ip += 1
                    elif op == 16:  # DISCARD — expression-statement epilogue
                        stack.pop()
                        self._reads = []
                        ip += 1
                    elif op == 17:  # DECL_ARRAY
                        stmt = ins[1]
                        value = PCLArray(stmt.name, stmt.var_type, stmt.size)
                        fvars[stmt.name] = value
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=stmt.name,
                                value=value,
                                reads=[],
                            )
                            rframe.def_events[stmt.name] = event.uid
                        ip += 1
                    elif op == 18:  # DECL_INIT
                        stmt = ins[1]
                        value = stack.pop()
                        reads = self._reads
                        self._reads = []
                        fvars[stmt.name] = value
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=stmt.name,
                                value=value,
                                reads=reads,
                            )
                            rframe.def_events[stmt.name] = event.uid
                        ip += 1
                    elif op == 19:  # DECL_DEFAULT
                        stmt = ins[1]
                        value = default_value(stmt.var_type)
                        fvars[stmt.name] = value
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=stmt.name,
                                value=value,
                                reads=[],
                            )
                            rframe.def_events[stmt.name] = event.uid
                        ip += 1
                    elif op == 20:  # RETURN_VALUE
                        stmt = ins[1]
                        value = stack.pop()
                        reads = self._reads
                        self._reads = []
                        ret_uid = -1
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_RET,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                value=value,
                                reads=reads,
                            )
                            ret_uid = event.uid
                        vframe.ip = ip
                        action = (_RETURN, value, ret_uid)
                        break
                    elif op == 21:  # RETURN_NONE
                        stmt = ins[1]
                        ret_uid = -1
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_RET,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                value=None,
                                reads=[],
                            )
                            ret_uid = event.uid
                        vframe.ip = ip
                        action = (_RETURN, None, ret_uid)
                        break
                    elif op == 22:  # BREAK
                        vframe.ip = ip
                        action = (_BREAK,)
                        break
                    elif op == 23:  # CONTINUE
                        vframe.ip = ip
                        action = (_CONTINUE,)
                        break
                    elif op == 24:  # LOOP_ENTER
                        stmt = ins[1]
                        block = ins[2]
                        if machine.maybe_skip_loop(self, stmt, block):
                            ip = ins[3]
                        else:
                            interval_id = machine.on_loop_entry(process, stmt, block)
                            vframe.blocks.append(
                                (_LOOP, stmt, block, interval_id, len(stack), ins[4], ins[3])
                            )
                            ip += 1
                    elif op == 25:  # LOOP_EXIT
                        entry = vframe.blocks.pop()
                        machine.on_loop_exit(process, entry[1], entry[2], entry[3])
                        ip += 1
                    elif op == 26:  # CHUNK_ENTER
                        block = ins[1]
                        if machine.maybe_skip_chunk(self, block):
                            ip = ins[2]
                        else:
                            interval_id = machine.on_chunk_entry(process, block)
                            vframe.blocks.append(
                                (_CHUNK, None, block, interval_id, len(stack), -1, ins[2])
                            )
                            ip += 1
                    elif op == 27:  # CHUNK_EXIT
                        entry = vframe.blocks.pop()
                        machine.on_chunk_exit(process, entry[2], entry[3])
                        ip += 1
                    elif op == 28:  # ACCEPT_ENTER
                        stmt = ins[1]
                        vframe.ip = ip
                        args = yield from machine.accept_entry(
                            process, stmt.node_id, stmt.entry
                        )
                        if len(args) != len(stmt.params):
                            raise PCLRuntimeError(
                                f"accept {stmt.entry}: caller passed {len(args)} args, "
                                f"accept declares {len(stmt.params)}"
                            )
                        accept_uid = -1
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_INPUT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=f"accept:{stmt.entry}",
                                value=list(args),
                                label="accept",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                            accept_uid = event.uid
                        for param, value in zip(stmt.params, args):
                            fvars[param.name] = value
                            if accept_uid >= 0:
                                rframe.def_events[param.name] = accept_uid
                        vframe.blocks.append(
                            (_ACCEPT, stmt, None, -1, len(stack), -1, -1)
                        )
                        ip += 1
                    elif op == 29:  # ACCEPT_EXIT
                        vframe.blocks.pop()
                        vframe.ip = ip
                        yield from machine.end_accept(process, ins[1].node_id)
                        ip += 1
                    elif op == 30:  # SEM_P
                        stmt = ins[1]
                        vframe.ip = ip
                        yield from machine.sem_p(process, stmt)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind="sync",
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=stmt.sem,
                                label="P",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 31:  # SEM_V
                        stmt = ins[1]
                        vframe.ip = ip
                        yield from machine.sem_v(process, stmt)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind="sync",
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=stmt.sem,
                                label="V",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 32:  # LOCK_ACQUIRE
                        stmt = ins[1]
                        vframe.ip = ip
                        yield from machine.lock_acquire(process, stmt)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind="sync",
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=stmt.lock,
                                label="lock",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 33:  # LOCK_RELEASE
                        stmt = ins[1]
                        vframe.ip = ip
                        yield from machine.lock_release(process, stmt)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind="sync",
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=stmt.lock,
                                label="unlock",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 34:  # SEND
                        stmt = ins[1]
                        value = stack.pop()
                        reads = self._reads
                        self._reads = []
                        vframe.ip = ip
                        yield from machine.send(process, stmt, value)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=f"send:{stmt.channel}",
                                value=value,
                                reads=reads,
                                label="send",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 35:  # SPAWN
                        stmt = ins[1]
                        argc = ins[2]
                        if argc:
                            args = stack[-argc:]
                            del stack[-argc:]
                        else:
                            args = []
                        reads = self._reads
                        self._reads = []
                        vframe.ip = ip
                        yield from machine.spawn(process, stmt, args)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var=f"spawn:{stmt.name}",
                                reads=reads,
                                label="spawn",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 36:  # JOIN
                        stmt = ins[1]
                        vframe.ip = ip
                        yield from machine.join(process, stmt)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind="sync",
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var="",
                                label="join",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 37:  # REPLY
                        stmt = ins[1]
                        value = stack.pop() if ins[2] else 0
                        reads = self._reads
                        self._reads = []
                        vframe.ip = ip
                        yield from machine.reply_entry(process, stmt.node_id, value)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_STMT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                var="reply",
                                value=value,
                                reads=reads,
                                label="reply",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                        ip += 1
                    elif op == 38:  # PRINT
                        stmt = ins[1]
                        argc = ins[2]
                        if argc:
                            values = stack[-argc:]
                            del stack[-argc:]
                        else:
                            values = []
                        reads = self._reads
                        self._reads = []
                        text = " ".join(
                            value if isinstance(value, str) else format_value(value)
                            for value in values
                        )
                        machine.print_line(process, text)
                        if tracer is not None:
                            emit_trace(
                                process,
                                kind=EV_PRINT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                value=text,
                                reads=reads,
                            )
                        ip += 1
                    elif op == 39:  # ASSERT
                        stmt = ins[1]
                        value = stack.pop()
                        reads = self._reads
                        self._reads = []
                        outcome = True if value else False
                        if tracer is not None:
                            emit_trace(
                                process,
                                kind=EV_ASSERT,
                                node_id=stmt.node_id,
                                stmt_label=stmt.stmt_label,
                                value=outcome,
                                reads=reads,
                            )
                        if not outcome:
                            raise AssertionFailure(
                                f"assertion failed: {expr_to_str(stmt.cond)}",
                                node_id=stmt.node_id,
                                pid=process.pid,
                            )
                        ip += 1
                    elif op == 40:  # RECV
                        expr = ins[1]
                        vframe.ip = ip
                        value = yield from machine.recv(
                            process, expr.node_id, expr.channel
                        )
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_INPUT,
                                node_id=expr.node_id,
                                var=f"recv:{expr.channel}",
                                value=value,
                                label="recv",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                            self._reads.append((f"<recv:{expr.channel}>", event.uid))
                        stack.append(value)
                        ip += 1
                    elif op == 41:  # CALL_ENTRY
                        expr = ins[1]
                        argc = ins[2]
                        if argc:
                            args = stack[-argc:]
                            del stack[-argc:]
                        else:
                            args = []
                        vframe.ip = ip
                        value = yield from machine.call_entry(
                            process, expr.node_id, expr.entry, args
                        )
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_INPUT,
                                node_id=expr.node_id,
                                var=f"call:{expr.entry}",
                                value=value,
                                label="rendezvous",
                            )
                            machine.bind_pending_syncs(process, event.uid)
                            self._reads.append((f"<call:{expr.entry}>", event.uid))
                        stack.append(value)
                        ip += 1
                    elif op == 42:  # INPUT — input()/rand()
                        name = ins[1]
                        argc = ins[2]
                        if argc:
                            args = stack[-argc:]
                            del stack[-argc:]
                        else:
                            args = []
                        value = machine.input_value(process, name, ins[3], args)
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_INPUT,
                                node_id=ins[3],
                                var=name,
                                value=value,
                                label=name,
                            )
                            self._reads.append((f"<{name}>", event.uid))
                        stack.append(value)
                        ip += 1
                    elif op == 43:  # CALL_PURE
                        argc = ins[2]
                        if argc:
                            args = stack[-argc:]
                            del stack[-argc:]
                        else:
                            args = []
                        stack.append(call_pure_builtin(ins[1], args))
                        ip += 1
                    elif op == 44:  # CALL_BEGIN
                        if ins[2] is None:
                            # Unknown callee: raise where the reference walker
                            # would, before evaluating any argument.
                            self.program.proc(ins[1].name)
                        self._arg_reads.append([])
                        ip += 1
                    elif op == 45:  # ARG_MARK
                        self._marks.append(len(self._reads))
                        ip += 1
                    elif op == 46:  # ARG_CAPTURE
                        mark = self._marks.pop()
                        buf = self._reads
                        self._arg_reads[-1].append(buf[mark:])
                        del buf[mark:]
                        ip += 1
                    elif op == 47:  # CALL_USER
                        expr = ins[1]
                        procdef = ins[2]
                        arg_reads = self._arg_reads.pop()
                        argc = len(expr.args)
                        if argc:
                            args = stack[-argc:]
                            del stack[-argc:]
                        else:
                            args = []
                        call_uid = -1
                        if tracer is not None:
                            event = emit_trace(
                                process,
                                kind=EV_CALL,
                                node_id=expr.node_id,
                                var=expr.name,
                                arg_reads=arg_reads,
                                arg_values=list(args),
                            )
                            call_uid = event.uid
                        postlog = machine.maybe_skip_call(procdef, call_uid)
                        if postlog is None:
                            vframe.ip = ip + 1
                            self._push_frame(
                                frames, procdef, args, expr.node_id, call_uid
                            )
                            break  # switch to the callee frame
                        # A skipped e-block call: its postlog stands in.
                        if tracer is not None and procdef.is_func:
                            self._reads.append((f"%0:{expr.name}", call_uid))
                        stack.append(postlog.retval)
                        ip += 1
                    elif op == 48:  # PROC_RETURN — implicit procedure end
                        procdef = vframe.procdef
                        if procdef.is_func:
                            raise PCLRuntimeError(
                                f"function {procdef.name!r} did not return a value"
                            )
                        ret_uid = -1
                        if tracer is not None:
                            # Implicit end: emit the closing EV_RET bracket.
                            event = emit_trace(
                                process,
                                kind=EV_RET,
                                node_id=procdef.node_id,
                                var=procdef.name,
                                call_uid=vframe.call_uid,
                            )
                            ret_uid = event.uid
                        machine.on_proc_exit(
                            process, procdef, vframe.interval_id, None
                        )
                        process.frames.pop()
                        frames.pop()
                        delivered = self._deliver(frames, vframe, None, ret_uid)
                        if delivered is not None:
                            result = delivered
                        break
                    elif op == 49:  # ROOT_RETURN — replay-root statement done
                        frames.pop()
                        break
                    else:  # pragma: no cover - compiler/executor mismatch
                        raise AssertionError(f"bad opcode {op}")
            except BaseException as error:  # noqa: BLE001 - single unwind point
                vframe.ip = ip
                if isinstance(error, PCLRuntimeError):
                    self._attach_innermost(frames, error)
                yield from self._unwind_error(frames, error)

            if action is None:
                continue  # frame switch: re-localise and keep going
            if action[0] == _RETURN:
                delivered = yield from self._unwind_return(frames, action[1], action[2])
                if delivered is not None:
                    result = delivered
            else:
                entry = yield from self._unwind_loop(frames, action[0] == _CONTINUE)
                landing = frames[-1]
                del landing.stack[entry[4]:]
                landing.ip = entry[5] if action[0] == _CONTINUE else entry[6]
        return result
