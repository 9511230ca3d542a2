"""The reference PCL tree walker: one instance executes one process.

This is the differential oracle for :class:`repro.vm.VMExec`, not a
runtime engine.  It exposes the same generator surface (``run_process``
/ ``exec_proc_body`` / ``exec_stmt``) and must produce byte-identical
records, so a test that runs a program under both (see
:func:`tests.oracle.oracle`) checks the VM against an independent,
straightforward implementation of the same semantics.

Every ``exec_*``/``eval_*`` method is a generator; ``yield`` marks a
preemption point (statement boundaries and shared-memory accesses), which
is how the scheduler interleaves processes to model an SMMP.  All
interaction with the environment — shared memory, synchronization, logging,
which nested e-blocks to skip — goes through the owning :class:`Machine`
(:mod:`repro.runtime.machine`), so e-block replay works by running the
same walker against a replay machine (:mod:`repro.core.emulation`).

The walker recurses: each PCL call costs a chain of Python generator
frames, so importing this module raises the interpreter's recursion limit
far enough for PCL recursion up to ``MAX_CALL_DEPTH`` (the VM needs no
such limit; its frames live on its own trampoline).
"""

from __future__ import annotations

import sys
from typing import Any, Generator

from repro.lang import ast
from repro.lang.parser import BUILTINS
from repro.runtime.errors import AssertionFailure, PCLRuntimeError
from repro.runtime.process import Frame, Process
from repro.runtime.tracing import (
    EV_ASSERT,
    EV_CALL,
    EV_ENTER,
    EV_INPUT,
    EV_PRED,
    EV_PRINT,
    EV_RET,
    EV_STMT,
)
from repro.runtime.values import (
    PCLArray,
    Value,
    apply_binary,
    apply_unary,
    call_pure_builtin,
    default_value,
    format_value,
)
from repro.vm.executor import MAX_CALL_DEPTH

if sys.getrecursionlimit() < 24_000:
    sys.setrecursionlimit(24_000)


class _Return(Exception):
    """A ``return`` propagating up to its procedure body."""

    def __init__(self, value: Any, ret_uid: int) -> None:
        self.value = value
        self.ret_uid = ret_uid


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Interp:
    """Executes one process of a compiled program."""

    def __init__(self, machine, process: Process) -> None:
        self.machine = machine
        self.process = process
        self.program = machine.compiled.program
        self.table = machine.compiled.table
        #: read buffer for the statement being traced: (def key, def uid)
        self._reads: list[tuple[str, int]] = []
        self._frame_uid_counter = 0
        # Per-statement hook gating, resolved once: the common fast path
        # pays neither a before_stmt nor an after_stmt call.
        self._before_hook = machine.before_stmt if machine.hooks_needed else None
        self._sync_prelog_sites = machine.sync_prelog_sites

    # ------------------------------------------------------------------
    # Process entry
    # ------------------------------------------------------------------

    def run_process(self, procdef: ast.ProcDef, args: list[Any]) -> Generator:
        """The top-level generator of this process."""
        yield from self.exec_proc_body(procdef, args, call_node_id=0, call_uid=-1)

    # ------------------------------------------------------------------
    # Procedure bodies
    # ------------------------------------------------------------------

    def _new_frame(self, procdef: ast.ProcDef, args: list[Any], call_node_id: int) -> Frame:
        frame = Frame(proc_name=procdef.name, call_node_id=call_node_id)
        self._frame_uid_counter += 1
        frame.uid = self._frame_uid_counter * 1000003 + self.process.pid
        for param, value in zip(procdef.params, args):
            frame.vars[param.name] = value
        return frame

    def exec_proc_body(
        self,
        procdef: ast.ProcDef,
        args: list[Any],
        call_node_id: int,
        call_uid: int,
    ) -> Generator:
        """Execute a procedure body inline, returning its value (if func)."""
        if len(args) != len(procdef.params):
            raise PCLRuntimeError(
                f"{procdef.name}: expected {len(procdef.params)} args, got {len(args)}"
            )
        if len(self.process.frames) >= MAX_CALL_DEPTH:
            raise PCLRuntimeError(
                f"call depth exceeded {MAX_CALL_DEPTH} (runaway recursion "
                f"in {procdef.name!r}?)"
            )
        frame = self._new_frame(procdef, args, call_node_id)
        self.process.frames.append(frame)
        interval_id = self.machine.on_proc_entry(self.process, procdef, args)

        enter_uid = -1
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_ENTER,
                node_id=procdef.node_id,
                var=procdef.name,
                call_uid=call_uid,
            )
            enter_uid = event.uid
            frame.enter_uid = enter_uid
            # A process root's 'begin' sync node binds to its first EV_ENTER.
            self.machine.bind_pending_syncs(self.process, enter_uid)
            # Parameters are defined by the enter event (the %n mapping).
            for param in procdef.params:
                frame.def_events[param.name] = enter_uid

        retval: Any = None
        ret_uid = -1
        returned = False
        chunk_plan = self.machine.compiled.plan.chunk_groups(procdef.name)
        try:
            if chunk_plan is None:
                yield from self.exec_stmt(procdef.body)
            else:
                yield from self._exec_chunked_body(chunk_plan)
        except _Return as signal:
            retval = signal.value
            ret_uid = signal.ret_uid
            returned = True
        if procdef.is_func and not returned:
            raise PCLRuntimeError(f"function {procdef.name!r} did not return a value")

        if self.machine.tracer is not None and not returned:
            # Implicit procedure end: emit the matching EV_RET anyway so the
            # dynamic graph has a closing bracket for this sub-graph.
            event = self.machine.emit_trace(
                self.process,
                kind=EV_RET,
                node_id=procdef.node_id,
                var=procdef.name,
                call_uid=call_uid,
            )
            ret_uid = event.uid

        self.machine.on_proc_exit(self.process, procdef, interval_id, retval)
        self.process.frames.pop()
        return retval, ret_uid

    def _exec_chunked_body(self, chunk_plan) -> Generator:
        """Execute a split procedure body (§5.4 chunk e-blocks).

        Barrier groups (chunk is None — statements that may ``return``)
        always execute inline, so control transfers out of the procedure
        are never hidden inside a skippable block.
        """
        stmt_by_id = self.machine.compiled.database.stmt_by_id
        for block, node_ids in chunk_plan:
            if block is None:
                for node_id in node_ids:
                    yield from self.exec_stmt(stmt_by_id[node_id])
                continue
            if self.machine.maybe_skip_chunk(self, block):
                continue
            interval_id = self.machine.on_chunk_entry(self.process, block)
            try:
                for node_id in node_ids:
                    yield from self.exec_stmt(stmt_by_id[node_id])
            except GeneratorExit:
                raise  # closing a suspended process logs nothing
            except BaseException:
                self.machine.on_chunk_exit(self.process, block, interval_id)
                raise
            self.machine.on_chunk_exit(self.process, block, interval_id)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt) -> Generator:
        """Execute one statement (recursively)."""
        if isinstance(stmt, ast.Block):
            for child in stmt.body:
                yield from self.exec_stmt(child)
            return

        yield  # preemption point at every statement boundary
        self.process.steps += 1
        segment = self.process.current_segment
        if segment is not None:
            # Statement-level work on the current internal edge.  Unlike
            # scheduler steps this is schedule-independent: the statements a
            # process executes between its sync ops depend only on its path.
            segment.step_count += 1
        if self._before_hook is not None:
            self._before_hook(self.process, stmt)

        try:
            yield from self._dispatch_stmt(stmt)
        except PCLRuntimeError as error:
            self.machine.attach_error_site(error, stmt, self.process)
            raise

        # Sync-unit prelog (§5.5): if this statement starts a
        # synchronization unit, snapshot the unit's shared reads.
        if stmt.node_id in self._sync_prelog_sites:
            self.machine.after_stmt(self.process, stmt)

    def _dispatch_stmt(self, stmt: ast.Stmt) -> Generator:
        if isinstance(stmt, ast.Assign):
            yield from self._exec_assign(stmt)
        elif isinstance(stmt, ast.VarDecl):
            yield from self._exec_vardecl(stmt)
        elif isinstance(stmt, ast.If):
            yield from self._exec_if(stmt)
        elif isinstance(stmt, ast.While):
            yield from self._exec_while(stmt)
        elif isinstance(stmt, ast.For):
            yield from self._exec_for(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self._begin_reads()
            yield from self.eval_expr(stmt.call)
            self._end_reads()
        elif isinstance(stmt, ast.Return):
            yield from self._exec_return(stmt)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.SemP):
            yield from self.machine.sem_p(self.process, stmt)
            self._trace_sync(stmt, "P", stmt.sem)
        elif isinstance(stmt, ast.SemV):
            yield from self.machine.sem_v(self.process, stmt)
            self._trace_sync(stmt, "V", stmt.sem)
        elif isinstance(stmt, ast.LockStmt):
            yield from self.machine.lock_acquire(self.process, stmt)
            self._trace_sync(stmt, "lock", stmt.lock)
        elif isinstance(stmt, ast.UnlockStmt):
            yield from self.machine.lock_release(self.process, stmt)
            self._trace_sync(stmt, "unlock", stmt.lock)
        elif isinstance(stmt, ast.Send):
            self._begin_reads()
            value = yield from self.eval_expr(stmt.value)
            reads = self._end_reads()
            yield from self.machine.send(self.process, stmt, value)
            if self.machine.tracer is not None:
                event = self.machine.emit_trace(
                    self.process,
                    kind=EV_STMT,
                    node_id=stmt.node_id,
                    stmt_label=stmt.stmt_label,
                    var=f"send:{stmt.channel}",
                    value=value,
                    reads=reads,
                    label="send",
                )
                self.machine.bind_pending_syncs(self.process, event.uid)
        elif isinstance(stmt, ast.Spawn):
            self._begin_reads()
            args = []
            for arg in stmt.args:
                value = yield from self.eval_expr(arg)
                args.append(value)
            reads = self._end_reads()
            yield from self.machine.spawn(self.process, stmt, args)
            if self.machine.tracer is not None:
                event = self.machine.emit_trace(
                    self.process,
                    kind=EV_STMT,
                    node_id=stmt.node_id,
                    stmt_label=stmt.stmt_label,
                    var=f"spawn:{stmt.name}",
                    reads=reads,
                    label="spawn",
                )
                self.machine.bind_pending_syncs(self.process, event.uid)
        elif isinstance(stmt, ast.Join):
            yield from self.machine.join(self.process, stmt)
            self._trace_sync(stmt, "join", "")
        elif isinstance(stmt, ast.Accept):
            yield from self._exec_accept(stmt)
        elif isinstance(stmt, ast.Reply):
            yield from self._exec_reply(stmt)
        elif isinstance(stmt, ast.Print):
            yield from self._exec_print(stmt)
        elif isinstance(stmt, ast.AssertStmt):
            yield from self._exec_assert(stmt)
        else:
            raise PCLRuntimeError(f"unhandled statement {type(stmt).__name__}")

    def _exec_assign(self, stmt: ast.Assign) -> Generator:
        self._begin_reads()
        value = yield from self.eval_expr(stmt.value)
        if isinstance(stmt.target, ast.Index):
            index = yield from self.eval_expr(stmt.target.index)
            reads = self._end_reads()
            yield from self.write_var_elem(stmt.target.name, index, value, stmt.node_id)
            written = f"{stmt.target.name}[{int(index)}]"
        else:
            reads = self._end_reads()
            yield from self.write_var(stmt.target.name, value, stmt.node_id)
            written = stmt.target.name
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_STMT,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                var=written,
                value=value,
                reads=reads,
            )
            self._note_def(written, stmt.target.name, event.uid)

    def _exec_vardecl(self, stmt: ast.VarDecl) -> Generator:
        frame = self.process.frame
        if stmt.size is not None:
            frame.vars[stmt.name] = PCLArray(stmt.name, stmt.var_type, stmt.size)
            reads: list[tuple[str, int]] = []
            value: Any = frame.vars[stmt.name]
        elif stmt.init is not None:
            self._begin_reads()
            value = yield from self.eval_expr(stmt.init)
            reads = self._end_reads()
            frame.vars[stmt.name] = value
        else:
            value = default_value(stmt.var_type)
            frame.vars[stmt.name] = value
            reads = []
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_STMT,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                var=stmt.name,
                value=value,
                reads=reads,
            )
            frame.def_events[stmt.name] = event.uid

    def _eval_pred(self, stmt: ast.Stmt, cond: ast.Expr) -> Generator:
        self._begin_reads()
        value = yield from self.eval_expr(cond)
        reads = self._end_reads()
        outcome = bool(value)
        if self.machine.tracer is not None:
            self.machine.emit_trace(
                self.process,
                kind=EV_PRED,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                value=outcome,
                reads=reads,
                label="true" if outcome else "false",
            )
        return outcome

    def _exec_if(self, stmt: ast.If) -> Generator:
        outcome = yield from self._eval_pred(stmt, stmt.cond)
        if outcome:
            yield from self.exec_stmt(stmt.then)
        elif stmt.orelse is not None:
            yield from self.exec_stmt(stmt.orelse)

    def _exec_while(self, stmt: ast.While) -> Generator:
        block = self.machine.compiled.plan.loop_block(stmt.node_id)
        if self.machine.maybe_skip_loop(self, stmt, block):
            return
        interval_id = self.machine.on_loop_entry(self.process, stmt, block)
        try:
            while True:
                outcome = yield from self._eval_pred(stmt, stmt.cond)
                if not outcome:
                    break
                try:
                    yield from self.exec_stmt(stmt.body)
                except _Break:
                    break
                except _Continue:
                    continue
        except GeneratorExit:
            raise  # closing a suspended process logs nothing
        except BaseException:
            self.machine.on_loop_exit(self.process, stmt, block, interval_id)
            raise
        self.machine.on_loop_exit(self.process, stmt, block, interval_id)

    def _exec_for(self, stmt: ast.For) -> Generator:
        block = self.machine.compiled.plan.loop_block(stmt.node_id)
        if self.machine.maybe_skip_loop(self, stmt, block):
            return
        interval_id = self.machine.on_loop_entry(self.process, stmt, block)
        try:
            yield from self.exec_stmt(stmt.init)
            while True:
                outcome = yield from self._eval_pred(stmt, stmt.cond)
                if not outcome:
                    break
                try:
                    yield from self.exec_stmt(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                yield from self.exec_stmt(stmt.step)
        except GeneratorExit:
            raise  # closing a suspended process logs nothing
        except BaseException:
            self.machine.on_loop_exit(self.process, stmt, block, interval_id)
            raise
        self.machine.on_loop_exit(self.process, stmt, block, interval_id)

    def _exec_return(self, stmt: ast.Return) -> Generator:
        value: Any = None
        reads: list[tuple[str, int]] = []
        if stmt.value is not None:
            self._begin_reads()
            value = yield from self.eval_expr(stmt.value)
            reads = self._end_reads()
        ret_uid = -1
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_RET,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                value=value,
                reads=reads,
            )
            ret_uid = event.uid
        raise _Return(value, ret_uid)

    def _exec_accept(self, stmt: ast.Accept) -> Generator:
        args = yield from self.machine.accept_entry(
            self.process, stmt.node_id, stmt.entry
        )
        if len(args) != len(stmt.params):
            raise PCLRuntimeError(
                f"accept {stmt.entry}: caller passed {len(args)} args, "
                f"accept declares {len(stmt.params)}"
            )
        frame = self.process.frame
        accept_uid = -1
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_INPUT,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                var=f"accept:{stmt.entry}",
                value=list(args),
                label="accept",
            )
            self.machine.bind_pending_syncs(self.process, event.uid)
            accept_uid = event.uid
        for param, value in zip(stmt.params, args):
            frame.vars[param.name] = value
            if accept_uid >= 0:
                frame.def_events[param.name] = accept_uid
        try:
            yield from self.exec_stmt(stmt.body)
        except GeneratorExit:
            raise  # closing a suspended process logs nothing
        except BaseException:
            yield from self.machine.end_accept(self.process, stmt.node_id)
            raise
        yield from self.machine.end_accept(self.process, stmt.node_id)

    def _exec_reply(self, stmt: ast.Reply) -> Generator:
        self._begin_reads()
        value: Any = 0
        if stmt.value is not None:
            value = yield from self.eval_expr(stmt.value)
        reads = self._end_reads()
        yield from self.machine.reply_entry(self.process, stmt.node_id, value)
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_STMT,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                var="reply",
                value=value,
                reads=reads,
                label="reply",
            )
            self.machine.bind_pending_syncs(self.process, event.uid)

    def _exec_print(self, stmt: ast.Print) -> Generator:
        self._begin_reads()
        values = []
        for arg in stmt.args:
            value = yield from self.eval_expr(arg)
            values.append(value)
        reads = self._end_reads()
        text = " ".join(
            value if isinstance(value, str) else format_value(value) for value in values
        )
        self.machine.print_line(self.process, text)
        if self.machine.tracer is not None:
            self.machine.emit_trace(
                self.process,
                kind=EV_PRINT,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                value=text,
                reads=reads,
            )

    def _exec_assert(self, stmt: ast.AssertStmt) -> Generator:
        self._begin_reads()
        value = yield from self.eval_expr(stmt.cond)
        reads = self._end_reads()
        outcome = bool(value)
        if self.machine.tracer is not None:
            self.machine.emit_trace(
                self.process,
                kind=EV_ASSERT,
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                value=outcome,
                reads=reads,
            )
        if not outcome:
            from repro.lang.pretty import expr_to_str

            raise AssertionFailure(
                f"assertion failed: {expr_to_str(stmt.cond)}",
                node_id=stmt.node_id,
                pid=self.process.pid,
            )

    def _trace_sync(self, stmt: ast.Stmt, op: str, obj: str) -> None:
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind="sync",
                node_id=stmt.node_id,
                stmt_label=stmt.stmt_label,
                var=obj,
                label=op,
            )
            self.machine.bind_pending_syncs(self.process, event.uid)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr) -> Generator:
        """Evaluate an expression, yielding at shared accesses."""
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.Name):
            value = yield from self.read_var(expr.name, expr.node_id)
            return value
        if isinstance(expr, ast.Index):
            index = yield from self.eval_expr(expr.index)
            value = yield from self.read_var_elem(expr.name, index, expr.node_id)
            return value
        if isinstance(expr, ast.Binary):
            return (yield from self._eval_binary(expr))
        if isinstance(expr, ast.Unary):
            operand = yield from self.eval_expr(expr.operand)
            return apply_unary(expr.op, operand)
        if isinstance(expr, ast.CallExpr):
            return (yield from self._eval_call(expr))
        if isinstance(expr, ast.RecvExpr):
            return (yield from self._eval_recv(expr))
        if isinstance(expr, ast.CallEntry):
            return (yield from self._eval_call_entry(expr))
        raise PCLRuntimeError(f"unhandled expression {type(expr).__name__}")

    def _eval_binary(self, expr: ast.Binary) -> Generator:
        if expr.op == "&&":
            left = yield from self.eval_expr(expr.left)
            if not bool(left):
                return False
            right = yield from self.eval_expr(expr.right)
            return bool(right)
        if expr.op == "||":
            left = yield from self.eval_expr(expr.left)
            if bool(left):
                return True
            right = yield from self.eval_expr(expr.right)
            return bool(right)
        left = yield from self.eval_expr(expr.left)
        right = yield from self.eval_expr(expr.right)
        return apply_binary(expr.op, left, right)

    def _eval_call(self, expr: ast.CallExpr) -> Generator:
        if expr.name in ("input", "rand"):
            args = []
            for arg in expr.args:
                value = yield from self.eval_expr(arg)
                args.append(value)
            value = self.machine.input_value(self.process, expr.name, expr.node_id, args)
            if self.machine.tracer is not None:
                event = self.machine.emit_trace(
                    self.process,
                    kind=EV_INPUT,
                    node_id=expr.node_id,
                    var=expr.name,
                    value=value,
                    label=expr.name,
                )
                self._reads.append((f"<{expr.name}>", event.uid))
            return value
        if expr.name in BUILTINS:
            args = []
            for arg in expr.args:
                value = yield from self.eval_expr(arg)
                args.append(value)
            return call_pure_builtin(expr.name, args)
        # User function call.
        return (yield from self.call_user(expr))

    def call_user(self, expr: ast.CallExpr) -> Generator:
        """Call a user procedure/function from an expression or CallStmt."""
        procdef = self.program.proc(expr.name)
        arg_values: list[Any] = []
        arg_reads: list[list[tuple[str, int]]] = []
        for arg in expr.args:
            mark = len(self._reads)
            value = yield from self.eval_expr(arg)
            arg_reads.append(self._reads[mark:])
            del self._reads[mark:]
            arg_values.append(value)

        call_uid = -1
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_CALL,
                node_id=expr.node_id,
                var=expr.name,
                arg_reads=arg_reads,
                arg_values=list(arg_values),
            )
            call_uid = event.uid

        postlog = self.machine.maybe_skip_call(procdef, call_uid)
        if postlog is None:
            value, value_uid = yield from self.exec_proc_body(
                procdef, arg_values, expr.node_id, call_uid
            )
        else:
            value, value_uid = postlog.retval, call_uid
        if self.machine.tracer is not None and procdef.is_func:
            # The caller's subsequent reads of this value depend on the
            # call's %0 (returned value).
            dep_uid = value_uid if value_uid >= 0 else call_uid
            self._reads.append((f"%0:{expr.name}", dep_uid))
        return value

    def _eval_recv(self, expr: ast.RecvExpr) -> Generator:
        value = yield from self.machine.recv(self.process, expr.node_id, expr.channel)
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_INPUT,
                node_id=expr.node_id,
                var=f"recv:{expr.channel}",
                value=value,
                label="recv",
            )
            self.machine.bind_pending_syncs(self.process, event.uid)
            self._reads.append((f"<recv:{expr.channel}>", event.uid))
        return value

    def _eval_call_entry(self, expr: ast.CallEntry) -> Generator:
        args: list[Any] = []
        for arg in expr.args:
            value = yield from self.eval_expr(arg)
            args.append(value)
        value = yield from self.machine.call_entry(
            self.process, expr.node_id, expr.entry, args
        )
        if self.machine.tracer is not None:
            event = self.machine.emit_trace(
                self.process,
                kind=EV_INPUT,
                node_id=expr.node_id,
                var=f"call:{expr.entry}",
                value=value,
                label="rendezvous",
            )
            self.machine.bind_pending_syncs(self.process, event.uid)
            self._reads.append((f"<call:{expr.entry}>", event.uid))
        return value

    # ------------------------------------------------------------------
    # Variable access
    # ------------------------------------------------------------------

    def read_var(self, name: str, node_id: int) -> Generator:
        frame = self.process.frame
        if name in frame.vars:
            value = frame.vars[name]
            if self.machine.tracer is not None:
                self._reads.append((name, frame.def_events.get(name, -1)))
            return value
        if name in self.table.shared:
            yield  # shared access is a preemption point
            value = self.machine.read_shared(self.process, name, node_id)
            if self.machine.tracer is not None:
                self._reads.append((name, self.machine.shared_def_uid(name)))
            return value
        raise PCLRuntimeError(f"read of undefined variable {name!r}")

    def read_var_elem(self, name: str, index: Value, node_id: int) -> Generator:
        frame = self.process.frame
        if name in frame.vars:
            array = frame.vars[name]
            if not isinstance(array, PCLArray):
                raise PCLRuntimeError(f"{name!r} is not an array")
            value = array.get(index)
            if self.machine.tracer is not None:
                key = f"{name}[{int(index)}]"
                uid = frame.def_events.get(key, frame.def_events.get(name, -1))
                self._reads.append((key, uid))
            return value
        if name in self.table.shared:
            yield
            value = self.machine.read_shared_elem(self.process, name, index, node_id)
            if self.machine.tracer is not None:
                key = f"{name}[{int(index)}]"
                self._reads.append((key, self.machine.shared_def_uid(key, name)))
            return value
        raise PCLRuntimeError(f"read of undefined array {name!r}")

    def write_var(self, name: str, value: Any, node_id: int) -> Generator:
        frame = self.process.frame
        if name in frame.vars:
            frame.vars[name] = value
            return
        if name not in self.table.shared and name in self.table.locals.get(
            frame.proc_name, ()
        ):
            # First write to a declared local (e.g. a for-loop induction
            # variable) materialises it in the frame.
            frame.vars[name] = value
            return
        if name in self.table.shared:
            yield
            self.machine.write_shared(self.process, name, value, node_id)
            return
        raise PCLRuntimeError(f"write to undefined variable {name!r}")

    def write_var_elem(self, name: str, index: Value, value: Any, node_id: int) -> Generator:
        frame = self.process.frame
        if name in frame.vars:
            array = frame.vars[name]
            if not isinstance(array, PCLArray):
                raise PCLRuntimeError(f"{name!r} is not an array")
            array.set(index, value)
            return
        if name in self.table.shared:
            yield
            self.machine.write_shared_elem(self.process, name, index, value, node_id)
            return
        raise PCLRuntimeError(f"write to undefined array {name!r}")

    # ------------------------------------------------------------------
    # Read-buffer helpers (tracing)
    # ------------------------------------------------------------------

    def _begin_reads(self) -> None:
        self._reads = []

    def _end_reads(self) -> list[tuple[str, int]]:
        reads = self._reads
        self._reads = []
        return reads

    def _note_def(self, written_key: str, base_name: str, event_uid: int) -> None:
        """Record the defining event of a written variable (traced mode)."""
        frame = self.process.frame
        if base_name in frame.vars:
            frame.def_events[written_key] = event_uid
        else:
            self.machine.note_shared_def(written_key, base_name, event_uid)
