"""The program database (§4.1).

"The program database contains information that cannot be easily
represented by the static graph; for example, where in the program an
identifier is defined.  The program database also keeps the information
obtained by semantic analyses of the program, such as the set of variables
that may be used or modified when invoking a subroutine."

This module packages those artifacts — identifier def/use sites, the call
graph, interprocedural REF/MOD summaries — behind query methods the PPD
Controller uses during the debugging phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.pretty import statement_source
from .dataflow import Summaries
from .interproc import CallGraph
from .symbols import SymbolTable


@dataclass
class IdentifierSites:
    """Where one identifier is declared, defined, and used."""

    name: str
    decl_node: int
    is_shared: bool
    owning_proc: str | None
    def_sites: list[tuple[str, int]] = field(default_factory=list)
    use_sites: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class ProgramDatabase:
    """Queryable program-text and semantic-analysis facts."""

    program: ast.Program
    table: SymbolTable
    call_graph: CallGraph
    summaries: Summaries
    #: statement node_id -> owning procedure name
    stmt_owner: dict[int, str] = field(default_factory=dict)
    #: statement node_id -> AST statement
    stmt_by_id: dict[int, ast.Stmt] = field(default_factory=dict)
    #: statement label ("s3") -> node_id
    stmt_by_label: dict[str, int] = field(default_factory=dict)
    #: call-site CallExpr node_id -> per-argument kind: "name" for a plain
    #: variable, "expr" for anything needing a fictional %n node (Fig 4.1)
    call_arg_kinds: dict[int, list[str]] = field(default_factory=dict)
    #: call-site CallExpr node_id -> rendered argument source text
    call_arg_texts: dict[int, list[str]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        program: ast.Program,
        table: SymbolTable,
        call_graph: CallGraph,
        summaries: Summaries,
    ) -> "ProgramDatabase":
        db = cls(
            program=program, table=table, call_graph=call_graph, summaries=summaries
        )
        from ..lang.pretty import expr_to_str

        proc_names = set(program.proc_names)
        for proc in program.procs:
            for stmt in ast.walk_statements(proc.body):
                db.stmt_owner[stmt.node_id] = proc.name
                db.stmt_by_id[stmt.node_id] = stmt
                if stmt.stmt_label:
                    db.stmt_by_label[stmt.stmt_label] = stmt.node_id
            for node in ast.walk(proc.body):
                if isinstance(node, ast.CallExpr) and node.name in proc_names:
                    db.call_arg_kinds[node.node_id] = [
                        "name" if isinstance(arg, ast.Name) else "expr"
                        for arg in node.args
                    ]
                    db.call_arg_texts[node.node_id] = [
                        expr_to_str(arg) for arg in node.args
                    ]
        return db

    # -- identifier queries ----------------------------------------------------

    def identifier(self, name: str, proc: str | None = None) -> IdentifierSites:
        """Everything known about identifier *name* (optionally within *proc*)."""
        if proc is not None:
            info = self.table.lookup(proc, name)
        else:
            info = self.table.shared.get(name)
            if info is None:
                for scope in self.table.locals.values():
                    if name in scope:
                        info = scope[name]
                        break
        if info is None:
            raise KeyError(f"unknown identifier {name!r}")
        return IdentifierSites(
            name=name,
            decl_node=info.decl_node,
            is_shared=info.is_shared,
            owning_proc=info.proc,
            def_sites=list(self.table.def_sites.get(name, ())),
            use_sites=list(self.table.use_sites.get(name, ())),
        )

    def use_sites(self, name: str) -> list[tuple[str, int]]:
        """(proc, node_id) pairs where *name* is read."""
        return list(self.table.use_sites.get(name, ()))

    # -- procedure queries -------------------------------------------------------

    def proc_ref(self, proc: str) -> set[str]:
        """Shared variables *proc* may read (transitively through calls)."""
        return set(self.summaries[proc].ref)

    def proc_mod(self, proc: str) -> set[str]:
        """Shared variables *proc* may write (transitively through calls)."""
        return set(self.summaries[proc].mod)

    def callees(self, proc: str) -> set[str]:
        return set(self.call_graph.calls.get(proc, ()))

    def callers(self, proc: str) -> set[str]:
        return set(self.call_graph.callers.get(proc, ()))

    # -- statement queries -------------------------------------------------------

    def statement_text(self, node_id: int) -> str:
        """One-line source text of a statement (for graph-node labels)."""
        stmt = self.stmt_by_id.get(node_id)
        if stmt is None:
            return f"<node {node_id}>"
        return statement_source(stmt)

    def statement_label(self, node_id: int) -> str:
        stmt = self.stmt_by_id.get(node_id)
        return stmt.stmt_label if stmt is not None else ""

    def owner_of(self, node_id: int) -> str:
        return self.stmt_owner.get(node_id, "")
