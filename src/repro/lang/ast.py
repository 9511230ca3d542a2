"""AST node definitions for PCL.

Every node carries a ``node_id`` unique within its program (assigned by the
parser in creation order: a compound node after its children) plus a source
position.  Statements additionally get an ``s``-label (``s1``, ``s2``, ...)
mirroring the statement numbering used in the paper's figures (e.g. Fig
4.1), assigned by :func:`number_statements`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


@dataclass
class Node:
    """Base class for all AST nodes.

    Nodes are not changed after :func:`repro.lang.parse` returns (apart
    from ``stmt_label``, which it sets), so each node's tuple of children
    is computed once, on the first walk, and kept in ``_children``.  That
    is a plain attribute, not a field: ``==``, ``repr`` and
    ``dataclasses.fields`` do not see it, and pickles leave it out.
    """

    node_id: int
    line: int
    column: int

    _children = None

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_children" in state:
            state = dict(state)
            del state["_children"]
        return state


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class Name(Expr):
    """A variable reference."""

    name: str


@dataclass
class Index(Expr):
    """An array element reference ``name[index]``."""

    name: str
    index: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Unary(Expr):
    op: str
    operand: Expr


@dataclass
class CallExpr(Expr):
    """A function (or builtin) call used as an expression."""

    name: str
    args: list[Expr]


@dataclass
class RecvExpr(Expr):
    """``recv(channel)`` — blocking message receive, used as an expression."""

    channel: str


@dataclass
class CallEntry(Expr):
    """``call E(args...)`` — an Ada-style rendezvous call (§6.2.3).

    Blocks until a partner ``accept``s and ``reply``s; evaluates to the
    reply value.  The caller's internal edge between the call and the
    return "contains zero events" (the caller is suspended throughout).
    """

    entry: str
    args: list["Expr"] = field(default_factory=list)


LValue = Union[Name, Index]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements.  ``stmt_label`` is filled in by
    :func:`number_statements` ("s1", "s2", ...)."""

    stmt_label: str = field(default="", compare=False)


@dataclass
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    var_type: str = "int"
    name: str = ""
    size: Optional[int] = None  # None => scalar; int => array length
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    target: LValue = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    orelse: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: "Assign" = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    step: "Assign" = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class CallStmt(Stmt):
    """A call used for effect: ``SubK(a, b);``."""

    call: CallExpr = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class SemP(Stmt):
    """Semaphore P (wait) operation."""

    sem: str = ""


@dataclass
class SemV(Stmt):
    """Semaphore V (signal) operation."""

    sem: str = ""


@dataclass
class LockStmt(Stmt):
    lock: str = ""


@dataclass
class UnlockStmt(Stmt):
    lock: str = ""


@dataclass
class Send(Stmt):
    """``send(channel, value);`` — blocking iff the channel is synchronous."""

    channel: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Spawn(Stmt):
    """``spawn worker(i);`` — create a new process running procedure ``name``."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Accept(Stmt):
    """``accept E(int a, ...) { body }`` — the callee side of a rendezvous.

    Blocks until a caller arrives, binds its actuals to the declared
    parameters, runs the body (the caller stays suspended), and releases
    the caller at ``reply`` (or at the end of the body with a default
    reply of 0).
    """

    entry: str = ""
    params: list["Param"] = field(default_factory=list)
    body: "Block" = None  # type: ignore[assignment]


@dataclass
class Reply(Stmt):
    """``reply expr;`` — finish the enclosing ``accept``, releasing the
    caller with *expr* as the rendezvous result."""

    value: Optional[Expr] = None


@dataclass
class Join(Stmt):
    """``join();`` — block until every process spawned by this one has exited."""


@dataclass
class Print(Stmt):
    args: list[Expr] = field(default_factory=list)


@dataclass
class AssertStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Param(Node):
    var_type: str = "int"
    name: str = ""


@dataclass
class SharedDecl(Node):
    """Top-level shared variable (the paper's ``SV``)."""

    var_type: str = "int"
    name: str = ""
    size: Optional[int] = None
    init: Optional[Expr] = None


@dataclass
class SemDecl(Node):
    name: str = ""
    initial: int = 1


@dataclass
class ChanDecl(Node):
    """Message channel.  ``capacity`` 0 means a synchronous (blocking-send)
    channel; a positive capacity bounds the buffer; ``None`` is unbounded."""

    name: str = ""
    capacity: Optional[int] = None


@dataclass
class LockDecl(Node):
    name: str = ""


@dataclass
class EntryDecl(Node):
    """A rendezvous entry point (§6.2.3)."""

    name: str = ""


@dataclass
class ProcDef(Node):
    """A procedure (``proc``) or function (``func``) definition."""

    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]
    is_func: bool = False
    return_type: Optional[str] = None


@dataclass
class Program(Node):
    shared: list[SharedDecl] = field(default_factory=list)
    semaphores: list[SemDecl] = field(default_factory=list)
    channels: list[ChanDecl] = field(default_factory=list)
    locks: list[LockDecl] = field(default_factory=list)
    entries: list[EntryDecl] = field(default_factory=list)
    procs: list[ProcDef] = field(default_factory=list)
    source: str = ""

    def proc(self, name: str) -> ProcDef:
        """Look up a procedure/function definition by name."""
        for proc in self.procs:
            if proc.name == name:
                return proc
        raise KeyError(f"no procedure named {name!r}")

    @property
    def proc_names(self) -> list[str]:
        return [proc.name for proc in self.procs]


# --------------------------------------------------------------------------
# Generic traversal helpers
# --------------------------------------------------------------------------


#: Node type -> the names of its fields other than position and label (the
#: ones that can hold nodes), filled the first time each type is walked.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def _child_fields(node_type: type) -> tuple[str, ...]:
    names = tuple(
        f.name
        for f in dataclasses.fields(node_type)
        if f.name not in ("node_id", "line", "column", "stmt_label")
    )
    _CHILD_FIELDS[node_type] = names
    return names


def iter_child_nodes(node: Node) -> tuple[Node, ...]:
    """The direct child nodes of *node* in source order (computed once)."""
    children = node._children
    if children is None:
        children = []
        names = _CHILD_FIELDS.get(type(node))
        if names is None:
            names = _child_fields(type(node))
        for name in names:
            value = getattr(node, name)
            if isinstance(value, Node):
                children.append(value)
            elif isinstance(value, list):
                children.extend(item for item in value if isinstance(item, Node))
        children = node._children = tuple(children)
    return children


def walk(node: Node) -> Iterator[Node]:
    """Yield *node* and all its descendants, depth-first, in source order."""
    stack = [node]
    pop = stack.pop
    push = stack.extend
    while stack:
        node = pop()
        yield node
        children = node._children
        if children is None:
            children = iter_child_nodes(node)
        if children:
            push(reversed(children))


def walk_statements(node: Node) -> Iterator[Stmt]:
    """Yield every statement node within *node* in source order."""
    for n in walk(node):
        if isinstance(n, Stmt):
            yield n


def number_statements(program: Program) -> dict[int, str]:
    """Assign paper-style ``s``-labels to every non-block statement.

    Returns a mapping from node_id to label.  Labels follow source order
    across the whole program, matching the numbering style of Fig 4.1.
    """
    labels: dict[int, str] = {}
    counter = 0
    for proc in program.procs:
        for stmt in walk_statements(proc.body):
            if isinstance(stmt, Block):
                continue
            counter += 1
            stmt.stmt_label = f"s{counter}"
            labels[stmt.node_id] = stmt.stmt_label
    return labels


def expr_reads(expr: Expr) -> set[str]:
    """The set of variable names read by *expr* (array names included)."""
    reads: set[str] = set()
    for node in walk(expr):
        if isinstance(node, Name):
            reads.add(node.name)
        elif isinstance(node, Index):
            reads.add(node.name)
    return reads


def lvalue_name(target: LValue) -> str:
    """The variable name an lvalue writes (the array name for ``a[i]``)."""
    if isinstance(target, (Name, Index)):
        return target.name
    raise TypeError(f"not an lvalue: {target!r}")
