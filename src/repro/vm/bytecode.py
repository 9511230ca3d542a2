"""AST -> flat bytecode lowering for the PCL virtual machine.

A tree walker re-discovers the shape of every statement on every
execution: each expression node costs a fresh generator, each statement
an ``isinstance`` ladder.  The VM pays those costs **once per program**,
at lowering time, and executes a flat instruction list afterwards:

* expressions are linearized onto an operand stack (constants folded
  into ``CONST`` operands, names interned);
* structured control flow (``if``/``while``/``for``, short-circuit
  ``&&``/``||``) becomes resolved jump targets;
* the instrumentation plan (:mod:`repro.compiler.instrument`) is baked
  in — ``LOOP_ENTER``/``CHUNK_ENTER`` carry their e-blocks, and the
  sync-unit ``POST`` probes are only emitted at sites the plan names.

Instructions are plain tuples ``(opcode, *operands)``; operands refer
to AST nodes and e-blocks directly, so the executor can hand them to
the owning :class:`~repro.runtime.machine.Machine` unchanged — which is
what keeps logs and trace events byte-identical to those of the
reference tree walker the tests compare against.

A parallel ``stmt_at`` table maps every instruction index back to the
innermost statement being executed there, giving the executor the same
error-attachment behaviour as a walker's nested ``exec_stmt`` frames,
and the disassembler (:mod:`repro.vm.disasm`) its source anchors.

Opcode numbers are the order in which the executor's ``if``/``elif``
ladder tests them, most often dispatched first; a user call's five ops
(``CALL_BEGIN``, ``ARG_MARK``, ``ARG_CAPTURE``, ``CALL_USER``,
``RETURN_VALUE``) follow the expression core.  No number is persisted:
the disassembler and the verifier print mnemonics (:data:`OPNAMES`).
"""

from __future__ import annotations

from sys import intern
from typing import Any, Optional

from ..lang import ast
from ..lang.parser import BUILTINS

# ---------------------------------------------------------------------------
# Opcodes.  Integers, numbered in the order the executor's if/elif ladder
# tests them, which is roughly how often the benchmark programs dispatch
# them: the statement and expression core first, then the five ops of a
# user call and its return, then the rest.  OPNAMES is read off these
# constants, so the disassembly and the verifier name ops, not numbers.
# ---------------------------------------------------------------------------

PRE = 0  # (stmt)                 statement boundary: yield, count a step
CONST = 1  # (value)              push a literal
LOAD = 2  # (name, node_id)       push a variable (yields when shared)
BINOP = 3  # (op)                 pop rhs, lhs; push lhs <op> rhs
STORE = 4  # (name, stmt)         pop value; write scalar; trace def
JUMP = 5  # (target)
JUMP_IF_FALSE = 6  # (target)     pop; jump when falsy
PRED = 7  # (stmt)                pop cond; trace EV_PRED; push bool
BEGIN_READS = 8  # ()             open the traced-reads buffer
CALL_BEGIN = 9  # (expr, procdef) open a per-call argument-reads frame
ARG_MARK = 10  # ()               mark the reads buffer before an arg
ARG_CAPTURE = 11  # ()            capture one argument's reads
CALL_USER = 12  # (expr, procdef) pop args; invoke; push result
RETURN_VALUE = 13  # (stmt)       pop value; unwind to the proc frame
DECL_INIT = 14  # (stmt)          pop value; declare initialised local
POST = 15  # (stmt)               sync-unit prelog probe (plan site)
SEM_P = 16  # (stmt)
SEM_V = 17  # (stmt)
RECV = 18  # (expr)               push received value
SEND = 19  # (stmt)               pop value
LOAD_ELEM = 20  # (name, node_id) pop index; push element
STORE_ELEM = 21  # (name, stmt)   pop index, value; write element
LOOP_ENTER = 22  # (stmt, block, exit_after, cont_target)
LOOP_EXIT = 23  # ()
PROC_RETURN = 24  # (procdef)     implicit end of a procedure body
SPAWN = 25  # (stmt, argc)        pop argc args
UNOP = 26  # (op)
SC_AND = 27  # (target)           pop; if falsy push False and jump
SC_OR = 28  # (target)            pop; if truthy push True and jump
TO_BOOL = 29  # ()                coerce top of stack to bool
DISCARD = 30  # ()                expression statement epilogue
DECL_ARRAY = 31  # (stmt)         declare a local array
DECL_DEFAULT = 32  # (stmt)       declare zero-valued local
RETURN_NONE = 33  # (stmt)        unwind to the proc frame, value None
BREAK = 34  # ()                  unwind to the innermost loop's exit
CONTINUE = 35  # ()               unwind to the innermost loop's step
CHUNK_ENTER = 36  # (block, skip_target)
CHUNK_EXIT = 37  # ()
ACCEPT_ENTER = 38  # (stmt)       rendezvous accept; binds entry params
ACCEPT_EXIT = 39  # (stmt)        end_accept (also run when unwinding)
LOCK_ACQUIRE = 40  # (stmt)
LOCK_RELEASE = 41  # (stmt)
JOIN = 42  # (stmt)
REPLY = 43  # (stmt, has_value)   pop value when has_value
PRINT = 44  # (stmt, argc)        pop argc args
ASSERT = 45  # (stmt)             pop cond
CALL_ENTRY = 46  # (expr, argc)   pop args; push rendezvous result
INPUT = 47  # (name, argc, node_id)  input()/rand(); push value
CALL_PURE = 48  # (name, argc)    pure builtin; push value
ROOT_RETURN = 49  # ()            end of a replay-root statement code

#: Each opcode's mnemonic, indexed by opcode.
OPNAMES = sorted(
    (name for name, value in list(globals().items()) if name.isupper() and type(value) is int),
    key=globals().__getitem__,
)


class Code:
    """One flat instruction sequence (a procedure body or a replay root)."""

    __slots__ = ("name", "kind", "instrs", "stmt_at")

    def __init__(
        self,
        name: str,
        kind: str,
        instrs: list[tuple],
        stmt_at: list[Optional[ast.Stmt]],
    ) -> None:
        self.name = name
        self.kind = kind  # "proc" | "stmt"
        self.instrs = instrs
        self.stmt_at = stmt_at

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Code {self.kind} {self.name!r}: {len(self.instrs)} instrs>"


class _Compiler:
    """Lowers one procedure body (or replay-root statement) to a Code."""

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self.plan = compiled.plan
        self.instrs: list[tuple] = []
        self.stmt_at: list[Optional[ast.Stmt]] = []
        self._stmt_stack: list[ast.Stmt] = []
        #: literal pool: equal constants share one operand object
        self._consts: dict[tuple[type, Any], Any] = {}

    # -- emission ----------------------------------------------------------

    def here(self) -> int:
        return len(self.instrs)

    def emit(self, *ins) -> int:
        self.instrs.append(ins)
        self.stmt_at.append(self._stmt_stack[-1] if self._stmt_stack else None)
        return len(self.instrs) - 1

    def patch(self, index: int, *ins) -> None:
        self.instrs[index] = ins

    def const(self, value: Any) -> Any:
        key = (type(value), value)
        return self._consts.setdefault(key, value)

    # -- statements --------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> bool:
        """Lower *node*; returns whether it can complete normally."""
        if isinstance(node, ast.Block):
            return self.stmts(node.body)
        self._stmt_stack.append(node)
        self.emit(PRE, node)
        completes = self._dispatch(node)
        # Sync-unit prelog (§5.5) — only at sites the plan names, and never
        # after a statement that cannot complete normally.
        if completes and node.node_id in self.plan.post_stmt_prelogs:
            self.emit(POST, node)
        self._stmt_stack.pop()
        return completes

    def stmts(self, nodes) -> bool:
        """Lower a statement sequence up to the first that cannot complete
        normally: what follows it is dead, and lowering it would leave its
        e-block boundaries unreachable (:mod:`repro.vm.verify`, invariant 3)."""
        for node in nodes:
            if not self.stmt(node):
                return False
        return True

    def _dispatch(self, node: ast.Stmt) -> bool:
        if isinstance(node, ast.Assign):
            self.emit(BEGIN_READS)
            self.expr(node.value)
            if isinstance(node.target, ast.Index):
                self.expr(node.target.index)
                self.emit(STORE_ELEM, intern(node.target.name), node)
            else:
                self.emit(STORE, intern(node.target.name), node)
        elif isinstance(node, ast.VarDecl):
            if node.size is not None:
                self.emit(DECL_ARRAY, node)
            elif node.init is not None:
                self.emit(BEGIN_READS)
                self.expr(node.init)
                self.emit(DECL_INIT, node)
            else:
                self.emit(DECL_DEFAULT, node)
        elif isinstance(node, ast.If):
            self._pred(node, node.cond)
            false_jump = self.emit(JUMP_IF_FALSE, None)
            completes = self.stmt(node.then)
            if node.orelse is not None:
                end_jump = self.emit(JUMP, None)
                self.patch(false_jump, JUMP_IF_FALSE, self.here())
                completes = self.stmt(node.orelse) or completes
                self.patch(end_jump, JUMP, self.here())
            else:
                self.patch(false_jump, JUMP_IF_FALSE, self.here())
                completes = True
            return completes
        elif isinstance(node, ast.While):
            block = self.plan.loop_block(node.node_id)
            enter = self.emit(LOOP_ENTER, node, block, None, None)
            cond_ip = self.here()
            self._pred(node, node.cond)
            false_jump = self.emit(JUMP_IF_FALSE, None)
            self.stmt(node.body)
            self.emit(JUMP, cond_ip)
            self.patch(false_jump, JUMP_IF_FALSE, self.here())
            self.emit(LOOP_EXIT)
            self.patch(enter, LOOP_ENTER, node, block, self.here(), cond_ip)
        elif isinstance(node, ast.For):
            block = self.plan.loop_block(node.node_id)
            enter = self.emit(LOOP_ENTER, node, block, None, None)
            self.stmt(node.init)
            cond_ip = self.here()
            self._pred(node, node.cond)
            false_jump = self.emit(JUMP_IF_FALSE, None)
            self.stmt(node.body)
            step_ip = self.here()
            self.stmt(node.step)
            self.emit(JUMP, cond_ip)
            self.patch(false_jump, JUMP_IF_FALSE, self.here())
            self.emit(LOOP_EXIT)
            self.patch(enter, LOOP_ENTER, node, block, self.here(), step_ip)
        elif isinstance(node, ast.CallStmt):
            self.emit(BEGIN_READS)
            self.expr(node.call)
            self.emit(DISCARD)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.emit(BEGIN_READS)
                self.expr(node.value)
                self.emit(RETURN_VALUE, node)
            else:
                self.emit(RETURN_NONE, node)
            return False
        elif isinstance(node, ast.Break):
            self.emit(BREAK)
            return False
        elif isinstance(node, ast.Continue):
            self.emit(CONTINUE)
            return False
        elif isinstance(node, ast.SemP):
            self.emit(SEM_P, node)
        elif isinstance(node, ast.SemV):
            self.emit(SEM_V, node)
        elif isinstance(node, ast.LockStmt):
            self.emit(LOCK_ACQUIRE, node)
        elif isinstance(node, ast.UnlockStmt):
            self.emit(LOCK_RELEASE, node)
        elif isinstance(node, ast.Send):
            self.emit(BEGIN_READS)
            self.expr(node.value)
            self.emit(SEND, node)
        elif isinstance(node, ast.Spawn):
            self.emit(BEGIN_READS)
            for arg in node.args:
                self.expr(arg)
            self.emit(SPAWN, node, len(node.args))
        elif isinstance(node, ast.Join):
            self.emit(JOIN, node)
        elif isinstance(node, ast.Accept):
            self.emit(ACCEPT_ENTER, node)
            if not self.stmt(node.body):
                # The return, break or continue that leaves the body
                # closes the accept as it unwinds.
                return False
            self.emit(ACCEPT_EXIT, node)
        elif isinstance(node, ast.Reply):
            self.emit(BEGIN_READS)
            if node.value is not None:
                self.expr(node.value)
            self.emit(REPLY, node, node.value is not None)
        elif isinstance(node, ast.Print):
            self.emit(BEGIN_READS)
            for arg in node.args:
                self.expr(arg)
            self.emit(PRINT, node, len(node.args))
        elif isinstance(node, ast.AssertStmt):
            self.emit(BEGIN_READS)
            self.expr(node.cond)
            self.emit(ASSERT, node)
        else:  # pragma: no cover - the parser cannot produce other kinds
            raise TypeError(f"unhandled statement {type(node).__name__}")
        return True

    def _pred(self, stmt: ast.Stmt, cond: ast.Expr) -> None:
        self.emit(BEGIN_READS)
        self.expr(cond)
        self.emit(PRED, stmt)

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.Expr) -> None:
        if isinstance(node, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.StrLit)):
            self.emit(CONST, self.const(node.value))
        elif isinstance(node, ast.Name):
            self.emit(LOAD, intern(node.name), node.node_id)
        elif isinstance(node, ast.Index):
            self.expr(node.index)
            self.emit(LOAD_ELEM, intern(node.name), node.node_id)
        elif isinstance(node, ast.Binary):
            if node.op == "&&":
                self.expr(node.left)
                short = self.emit(SC_AND, None)
                self.expr(node.right)
                self.emit(TO_BOOL)
                self.patch(short, SC_AND, self.here())
            elif node.op == "||":
                self.expr(node.left)
                short = self.emit(SC_OR, None)
                self.expr(node.right)
                self.emit(TO_BOOL)
                self.patch(short, SC_OR, self.here())
            else:
                self.expr(node.left)
                self.expr(node.right)
                self.emit(BINOP, intern(node.op))
        elif isinstance(node, ast.Unary):
            self.expr(node.operand)
            self.emit(UNOP, intern(node.op))
        elif isinstance(node, ast.CallExpr):
            if node.name in ("input", "rand"):
                for arg in node.args:
                    self.expr(arg)
                self.emit(INPUT, intern(node.name), len(node.args), node.node_id)
            elif node.name in BUILTINS:
                for arg in node.args:
                    self.expr(arg)
                self.emit(CALL_PURE, intern(node.name), len(node.args))
            else:
                # Resolve the callee once; an unknown name keeps the
                # reference walker's raise-at-call-time behaviour.
                try:
                    procdef = self.compiled.program.proc(node.name)
                except KeyError:
                    procdef = None
                self.emit(CALL_BEGIN, node, procdef)
                for arg in node.args:
                    self.emit(ARG_MARK)
                    self.expr(arg)
                    self.emit(ARG_CAPTURE)
                self.emit(CALL_USER, node, procdef)
        elif isinstance(node, ast.RecvExpr):
            self.emit(RECV, node)
        elif isinstance(node, ast.CallEntry):
            for arg in node.args:
                self.expr(arg)
            self.emit(CALL_ENTRY, node, len(node.args))
        else:  # pragma: no cover - the parser cannot produce other kinds
            raise TypeError(f"unhandled expression {type(node).__name__}")


def compile_proc(compiled, procdef: ast.ProcDef) -> Code:
    """Lower one procedure body, honouring the plan's chunk split (§5.4)."""
    lowering = _Compiler(compiled)
    chunk_plan = compiled.plan.chunk_groups(procdef.name)
    if chunk_plan is None:
        lowering.stmt(procdef.body)
    else:
        stmt_by_id = compiled.database.stmt_by_id
        for block, node_ids in chunk_plan:
            group = [stmt_by_id[node_id] for node_id in node_ids]
            if block is None:
                # Barrier group: statements that may transfer control out
                # of the procedure always execute inline, and the groups
                # after one that cannot complete normally are dead.
                if not lowering.stmts(group):
                    break
                continue
            enter = lowering.emit(CHUNK_ENTER, block, None)
            lowering.stmts(group)
            lowering.emit(CHUNK_EXIT)
            lowering.patch(enter, CHUNK_ENTER, block, lowering.here())
    lowering.emit(PROC_RETURN, procdef)
    return Code(procdef.name, "proc", lowering.instrs, lowering.stmt_at)


def compile_stmt(compiled, stmt: ast.Stmt) -> Code:
    """Lower one statement as a replay root (loop/chunk e-block re-execution)."""
    lowering = _Compiler(compiled)
    lowering.stmt(stmt)
    lowering.emit(ROOT_RETURN)
    return Code(f"stmt@{stmt.node_id}", "stmt", lowering.instrs, lowering.stmt_at)


class ProgramCode:
    """Per-:class:`~repro.compiler.compile.CompiledProgram` bytecode cache.

    Lowering is deterministic, so every machine, replay worker, and
    disassembler over the same compiled program shares one cache (attached
    lazily by :meth:`CompiledProgram.vm_code` and excluded from pickles).
    Every lowered code object passes the structural verifier
    (:mod:`repro.vm.verify`) before it is cached.
    """

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self._procs: dict[str, Code] = {}
        self._stmts: dict[int, Code] = {}

    def proc(self, name: str, fast: bool = False) -> Code:
        # ``fast`` is ignored: there is one lowering.  The keyword stays
        # only because bench/local.py still passes ``fast=True``.
        code = self._procs.get(name)
        if code is None:
            from .verify import verify_code

            code = verify_code(
                compile_proc(self.compiled, self.compiled.program.proc(name))
            )
            self._procs[name] = code
        return code

    def stmt(self, stmt: ast.Stmt) -> Code:
        code = self._stmts.get(stmt.node_id)
        if code is None:
            from .verify import verify_code

            code = verify_code(compile_stmt(self.compiled, stmt))
            self._stmts[stmt.node_id] = code
        return code
