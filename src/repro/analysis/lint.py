"""The PCL lint driver: static diagnostics from the compile-time analyses.

The paper computes rich compile-time facts (reaching definitions,
liveness, sync units, interprocedural REF/MOD) to make *dynamic* debugging
cheap; this module surfaces the same facts directly as user-facing
diagnostics.  Seven checks:

=================  ========  ====================================================
``race``           error     potential data race (static candidate pairs,
                             :mod:`repro.analysis.racecands`)
``unsync``         warning   shared access reachable without crossing any
                             synchronization unit boundary (§5.5)
``uninit``         error     local read before any initialization on some path
                             (reaching definitions: the entry pseudo-def reaches
                             the use)
``dead-store``     warning   local assignment never read afterwards (liveness)
``unreachable``    warning   statement unreachable in the CFG
``lock-cycle``     error     static lock-order cycle (potential deadlock)
``unused``         warning   local variable or parameter never read
=================  ========  ====================================================

Suppression: a ``// lint: ok`` comment on the same or the preceding source
line silences any diagnostic reported for that line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..lang import ast
from ..obs import hooks as _obs
from .cfg import CFG, ENTRY, PRED, STMT, build_cfgs
from .dataflow import ReachingDefinitions, Summaries, UseDefTable, reaching_definitions
from .interproc import CallGraph, build_call_graph, compute_summaries
from .liveness import liveness_from_reaching
from .racecands import ProgramFacts, RaceCandidates, analyze_candidates
from .simplified import N_SYNC, SimplifiedGraph, build_simplified_graphs
from .symbols import SymbolTable

ERROR = "error"
WARNING = "warning"

#: The seven diagnostic codes, in report-severity order.
CODES = ("race", "lock-cycle", "uninit", "unsync", "dead-store", "unreachable", "unused")

_SEVERITY = {
    "race": ERROR,
    "lock-cycle": ERROR,
    "uninit": ERROR,
    "unsync": WARNING,
    "dead-store": WARNING,
    "unreachable": WARNING,
    "unused": WARNING,
}

SUPPRESS_MARKER = "lint: ok"


@dataclass(frozen=True)
class Diagnostic:
    """One structured lint finding."""

    code: str
    severity: str
    proc: str
    node_id: int
    line: int
    message: str
    #: (proc, line) pairs of related sites (e.g. the other half of a race)
    related: tuple[tuple[str, int], ...] = ()

    def render(self) -> str:
        text = f"{self.severity}[{self.code}] {self.proc}:{self.line}: {self.message}"
        for proc, line in self.related:
            text += f"\n    related: {proc}:{line}"
        return text

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "proc": self.proc,
            "node_id": self.node_id,
            "line": self.line,
            "message": self.message,
            "related": [list(site) for site in self.related],
        }


@dataclass
class LintResult:
    """All diagnostics for one program, plus the candidate set used."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    candidates: Optional[RaceCandidates] = None
    suppressed: int = 0

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def filtered(self, severity: Optional[str] = None) -> list[Diagnostic]:
        if severity is None:
            return list(self.diagnostics)
        return [d for d in self.diagnostics if d.severity == severity]

    def render(self, severity: Optional[str] = None) -> str:
        shown = self.filtered(severity)
        if not shown:
            scope = f"{severity} " if severity else ""
            return f"no {scope}findings"
        lines = [d.render() for d in shown]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_json(self, severity: Optional[str] = None) -> str:
        return json.dumps(
            [d.to_dict() for d in self.filtered(severity)], indent=2, sort_keys=True
        )


def run_lint(
    program: ast.Program,
    table: SymbolTable,
    call_graph: Optional[CallGraph] = None,
    summaries: Optional[Summaries] = None,
    cfgs: Optional[dict[str, CFG]] = None,
    simplified: Optional[dict[str, SimplifiedGraph]] = None,
    candidates: Optional[RaceCandidates] = None,
) -> LintResult:
    """Run every lint check over an analyzed program."""
    if call_graph is None:
        call_graph = build_call_graph(program)
    if summaries is None:
        summaries = compute_summaries(program, table, call_graph)
    if cfgs is None:
        cfgs = build_cfgs(program)
    use_def = UseDefTable(summaries)
    if simplified is None:
        simplified = build_simplified_graphs(program, table, summaries, cfgs, use_def)
    reaching = {
        proc.name: reaching_definitions(cfgs[proc.name], summaries, use_def)
        for proc in program.procs
    }
    return _lint(program, table, call_graph, summaries, cfgs, simplified, reaching, candidates)


def lint_compiled(compiled, candidates: Optional[RaceCandidates] = None) -> LintResult:
    """Lint a ``CompiledProgram``-shaped bundle (attribute access only).

    The uninit and dead-store checks read the reaching definitions that
    ``compiled.static_graph`` holds.  A compile does not build that graph:
    the first read (usually this one) builds it from the compile's CFGs,
    summaries and USE/DEF table, so lint computes no statement's USE/DEF
    sets again, and a second lint reuses the graph.
    """
    reaching = {name: graph.reaching for name, graph in compiled.static_graph.procs.items()}
    return _lint(
        compiled.program,
        compiled.table,
        compiled.call_graph,
        compiled.summaries,
        compiled.cfgs,
        compiled.simplified,
        reaching,
        candidates,
    )


def _lint(
    program: ast.Program,
    table: SymbolTable,
    call_graph: CallGraph,
    summaries: Summaries,
    cfgs: dict[str, CFG],
    simplified: dict[str, SimplifiedGraph],
    reaching: dict[str, ReachingDefinitions],
    candidates: Optional[RaceCandidates],
) -> LintResult:
    if candidates is None:
        candidates = analyze_candidates(program, table, call_graph, summaries, cfgs)
    # The walk and the lockset analysis the candidates were built from.
    facts = candidates.facts
    if facts is None:
        facts = ProgramFacts(program, table, call_graph, cfgs)

    result = LintResult(candidates=candidates)
    diags = result.diagnostics
    diags.extend(_check_races(candidates))
    diags.extend(_check_lock_cycles(program, cfgs, facts))
    diags.extend(_check_uninit(program, table, cfgs, reaching))
    diags.extend(_check_unsync(program, candidates, simplified, facts))
    diags.extend(_check_dead_stores(program, table, cfgs, reaching))
    diags.extend(_check_unreachable(program, cfgs))
    diags.extend(_check_unused(program, table))

    suppressed_lines = _suppressed_lines(program.source)
    if suppressed_lines:
        kept = [d for d in diags if d.line not in suppressed_lines]
        result.suppressed = len(diags) - len(kept)
        result.diagnostics = kept
        diags = result.diagnostics
    diags.sort(key=lambda d: (d.proc, d.line, d.code, d.node_id))
    if _obs.enabled:
        _obs.on_lint(len(diags), len(result.errors))
    return result


def _suppressed_lines(source: str) -> set[int]:
    """Lines whose diagnostics are silenced by a ``// lint: ok`` comment.

    The marker silences its own line and the following one (so it can sit
    on the line above the flagged statement).
    """
    suppressed: set[int] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if SUPPRESS_MARKER in text and ("//" in text or "/*" in text):
            suppressed.add(lineno)
            suppressed.add(lineno + 1)
    return suppressed


# --------------------------------------------------------------------------
# Individual checks
# --------------------------------------------------------------------------


def _check_races(candidates: RaceCandidates) -> list[Diagnostic]:
    """One diagnostic per candidate variable, anchored at its first site."""
    diags = []
    for var in sorted(candidates.variables):
        pairs = [p for p in candidates.pairs if p.variable == var]
        sites = []
        for pair in pairs:
            sites.extend((pair.site_a, pair.site_b))
        anchor = min(sites, key=lambda s: (s.line, s.node_id))
        related = sorted(
            {(s.proc, s.line) for s in sites} - {(anchor.proc, anchor.line)}
        )
        kinds = sorted({p.kind for p in pairs})
        diags.append(
            Diagnostic(
                code="race",
                severity=ERROR,
                proc=anchor.proc,
                node_id=anchor.node_id,
                line=anchor.line,
                message=(
                    f"potential data race on shared {var!r} "
                    f"({', '.join(kinds)}; {len(pairs)} candidate site pair(s))"
                ),
                related=tuple(related),
            )
        )
    return diags


def _check_lock_cycles(
    program: ast.Program, cfgs: dict[str, CFG], facts: ProgramFacts
) -> list[Diagnostic]:
    """Static lock-order graph: token A -> token B when B is acquired while
    A is must-held somewhere; any cycle is a potential deadlock.

    Reads the lockset analysis *facts* holds (the candidate analysis's, if
    it ran one); a program that declares no token has no cycle."""
    if not facts.declared_tokens:
        return []
    locksets = facts.locksets()
    #: (held, acquired) -> acquire site (proc, line, node_id)
    order: dict[tuple[str, str], tuple[str, int, int]] = {}
    for proc in program.procs:
        takes = facts.procs[proc.name].takes
        for node_id in sorted(takes):
            acquired = takes[node_id]
            if acquired not in locksets.tokens:
                continue
            stmt = cfgs[proc.name].nodes[node_id].stmt
            for held in locksets.held_at(proc.name, node_id):
                if held != acquired:
                    order.setdefault(
                        (held, acquired), (proc.name, stmt.line, stmt.node_id)
                    )

    succs: dict[str, set[str]] = {}
    for held, acquired in order:
        succs.setdefault(held, set()).add(acquired)

    # Depth-first search with its own stack, since a lock order may hold
    # every lock: state 1 is on the path, 2 is finished.
    cycles: list[list[str]] = []
    seen_cycles: set[frozenset[str]] = set()
    state: dict[str, int] = {}
    for root in sorted(succs):
        if state.get(root, 0):
            continue
        state[root] = 1
        path = [root]
        pending = [iter(sorted(succs.get(root, ())))]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                state[path.pop()] = 2
                pending.pop()
            elif state.get(nxt, 0) == 0:
                state[nxt] = 1
                path.append(nxt)
                pending.append(iter(sorted(succs.get(nxt, ()))))
            elif state[nxt] == 1:
                cycle = path[path.index(nxt):]
                key = frozenset(cycle)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cycle)

    diags = []
    for cycle in cycles:
        # Anchor at the acquire site closing the cycle.
        closing = order[(cycle[-1], cycle[0])]
        related = sorted(
            {
                (order[(a, b)][0], order[(a, b)][1])
                for a, b in zip(cycle, cycle[1:] + cycle[:1])
                if (a, b) in order
            }
            - {(closing[0], closing[1])}
        )
        diags.append(
            Diagnostic(
                code="lock-cycle",
                severity=ERROR,
                proc=closing[0],
                node_id=closing[2],
                line=closing[1],
                message=(
                    "static lock-order cycle (potential deadlock): "
                    + " -> ".join(cycle + [cycle[0]])
                ),
                related=tuple(related),
            )
        )
    return diags


def _check_uninit(
    program: ast.Program,
    table: SymbolTable,
    cfgs: dict[str, CFG],
    reaching: dict[str, ReachingDefinitions],
) -> list[Diagnostic]:
    """A local read reachable without passing any declaration/assignment.

    The entry pseudo-definition (node id -1) stands for "never initialized
    on this path"; parameters and shared variables are always initialized
    at entry, so only plain locals are flagged — matching the runtime's
    ``read of undefined variable`` failure mode exactly.
    """
    diags = []
    for proc in program.procs:
        cfg = cfgs[proc.name]
        reach = reaching[proc.name]
        params = {p.name for p in proc.params}
        # Accept parameters are bound by the accept node itself.  Bare
        # declarations (no initialiser) are collected by name in the same
        # walk, the one walk of the procedure this check makes.
        accept_params: set[str] = set()
        bare_decls: dict[str, list[ast.VarDecl]] = {}
        for stmt in ast.walk_statements(proc.body):
            if isinstance(stmt, ast.Accept):
                accept_params.update(p.name for p in stmt.params)
            elif isinstance(stmt, ast.VarDecl) and stmt.init is None:
                bare_decls.setdefault(stmt.name, []).append(stmt)
        locals_here = set(table.locals.get(proc.name, ()))
        flaggable = locals_here - params - accept_params
        reported: set[tuple[str, int]] = set()
        for node_id, used in reach.uses.items():
            stmt = cfg.nodes[node_id].stmt
            if stmt is None:
                continue
            for var in sorted(used):
                if var not in flaggable or var in table.shared:
                    continue
                # Uninitialized declarations still *define* (the runtime
                # assigns a default), so only flag when no definition of
                # any kind reaches the use on some path.
                if (var, -1) in reach.reach_in[node_id] and not _decl_reaches(
                    cfg, bare_decls.get(var, ()), node_id
                ):
                    key = (var, stmt.line)
                    if key in reported:
                        continue
                    reported.add(key)
                    hint = (
                        " (declared, but not on every path to this use)"
                        if var in bare_decls
                        else ""
                    )
                    diags.append(
                        Diagnostic(
                            code="uninit",
                            severity=ERROR,
                            proc=proc.name,
                            node_id=stmt.node_id,
                            line=stmt.line,
                            message=f"{var!r} may be read before initialization{hint}",
                        )
                    )
    return diags


def _decl_reaches(cfg: CFG, decls: Iterable[ast.VarDecl], use_node: int) -> bool:
    """True when the bare declarations *decls* of a variable reach the use
    on every path (i.e. the entry pseudo-def only survives because a bare
    declaration generates no definition in the dataflow)."""
    decl_nodes = {cfg.node_of_stmt[s.node_id] for s in decls if s.node_id in cfg.node_of_stmt}
    if not decl_nodes:
        return False
    # Every entry->use path must pass a declaration node: check by removing
    # the declaration nodes and asking if the use is still reachable.
    frontier = [cfg.entry]
    seen: set[int] = set()
    while frontier:
        node = frontier.pop()
        if node in seen or node in decl_nodes:
            continue
        seen.add(node)
        if node == use_node:
            return False  # a decl-free path exists: genuinely uninitialized
        frontier.extend(cfg.successors(node))
    return True


def _check_unsync(
    program: ast.Program,
    candidates: RaceCandidates,
    simplified: dict[str, SimplifiedGraph],
    facts: ProgramFacts,
) -> list[Diagnostic]:
    """Shared accesses reachable from procedure entry without crossing any
    synchronization operation (they sit in a sync unit that starts at
    ENTRY), in programs that actually run multiple processes.  Only
    candidate variables are reported."""
    if not candidates.variables:
        return []
    if not any(walked.spawns for walked in facts.procs.values()):
        return []
    diags = []
    for proc in program.procs:
        graph = simplified.get(proc.name)
        if graph is None:
            continue
        cfg = graph.cfg
        entry_units = [
            unit
            for unit in graph.units
            if cfg.nodes[unit.start_node].kind == ENTRY
        ]
        if not entry_units:
            continue
        covered: set[int] = set()  # CFG nodes inside an entry-started unit
        for unit in entry_units:
            for edge in graph.edges:
                if edge.edge_id in unit.edges:
                    covered.update(edge.covered)
                    covered.add(edge.dst)
        reported: set[str] = set()
        for var in sorted(candidates.variables):
            for site in candidates.sites_by_var.get(var, ()):
                if site.proc != proc.name or var in reported:
                    continue
                cfg_node = facts.site_node(site)
                if cfg_node is None or cfg_node not in covered:
                    continue
                if graph.node_kinds.get(cfg_node) == N_SYNC:
                    continue
                reported.add(var)
                diags.append(
                    Diagnostic(
                        code="unsync",
                        severity=WARNING,
                        proc=proc.name,
                        node_id=site.node_id,
                        line=site.line,
                        message=(
                            f"shared {var!r} accessed outside any synchronization "
                            "unit (no sync operation on some path from entry)"
                        ),
                    )
                )
    return diags


def _check_dead_stores(
    program: ast.Program,
    table: SymbolTable,
    cfgs: dict[str, CFG],
    reaching: dict[str, ReachingDefinitions],
) -> list[Diagnostic]:
    """Local scalar assignments whose value is never read (liveness).

    Shared writes are observable by other processes and array writes are
    weak updates, so only plain local scalars are flagged.
    """
    diags = []
    for proc in program.procs:
        cfg = cfgs[proc.name]
        liveness = liveness_from_reaching(reaching[proc.name])
        for node_id, node in cfg.nodes.items():
            stmt = node.stmt
            if not isinstance(stmt, (ast.Assign, ast.VarDecl)):
                continue
            if isinstance(stmt, ast.Assign):
                if isinstance(stmt.target, ast.Index):
                    continue
                var = stmt.target.name
            else:
                if stmt.init is None or stmt.size is not None:
                    continue
                var = stmt.name
            if var in table.shared and var not in table.locals.get(proc.name, {}):
                continue
            info = table.locals.get(proc.name, {}).get(var)
            if info is not None and info.is_array:
                continue
            # Values computed with synchronizing side effects (recv, entry
            # calls) are stores for effect; skip them.
            value = stmt.value if isinstance(stmt, ast.Assign) else stmt.init
            if any(
                isinstance(n, (ast.RecvExpr, ast.CallEntry, ast.CallExpr))
                for n in ast.walk(value)
            ):
                continue
            if var not in liveness.live_out.get(node_id, set()):
                diags.append(
                    Diagnostic(
                        code="dead-store",
                        severity=WARNING,
                        proc=proc.name,
                        node_id=stmt.node_id,
                        line=stmt.line,
                        message=f"value stored to {var!r} is never read (dead store)",
                    )
                )
    return diags


def _check_unreachable(
    program: ast.Program, cfgs: dict[str, CFG]
) -> list[Diagnostic]:
    """Statements with no path from procedure entry (e.g. after return).

    Each dead region (unreachable statements joined by CFG edges, in
    either direction) is reported once, at its first statement in source
    order.  A dead loop has no statement free of dead predecessors: its
    head is entered from its own body.
    """
    diags = []
    for proc in program.procs:
        cfg = cfgs[proc.name]
        reachable: set[int] = set()
        frontier = [cfg.entry]
        while frontier:
            node = frontier.pop()
            if node in reachable:
                continue
            reachable.add(node)
            frontier.extend(cfg.successors(node))
        unreachable = {
            node_id
            for node_id, node in cfg.nodes.items()
            if node.kind in (STMT, PRED) and node_id not in reachable and node.stmt is not None
        }
        heads = []
        seen: set[int] = set()
        for start in unreachable:
            if start in seen:
                continue
            seen.add(start)
            region, frontier = [start], [start]
            while frontier:
                node = frontier.pop()
                for other in (*cfg.successors(node), *cfg.predecessors(node)):
                    if other in unreachable and other not in seen:
                        seen.add(other)
                        region.append(other)
                        frontier.append(other)
            first = min(region, key=lambda n: (cfg.nodes[n].stmt.line, cfg.nodes[n].stmt.column))
            heads.append(first)
        for node_id in sorted(heads):
            stmt = cfg.nodes[node_id].stmt
            diags.append(
                Diagnostic(
                    code="unreachable",
                    severity=WARNING,
                    proc=proc.name,
                    node_id=stmt.node_id,
                    line=stmt.line,
                    message="statement is unreachable",
                )
            )
    return diags


def _own_exprs(stmt: ast.Stmt) -> list[ast.Expr]:
    """The expressions evaluated by *stmt*'s own CFG node."""
    if isinstance(stmt, ast.Assign):
        exprs = [stmt.value]
        if isinstance(stmt.target, ast.Index):
            exprs.append(stmt.target.index)
        return exprs
    if isinstance(stmt, ast.VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AssertStmt)):
        return [stmt.cond]
    if isinstance(stmt, ast.CallStmt):
        return [stmt.call]
    if isinstance(stmt, (ast.Return, ast.Send, ast.Reply)):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (ast.Spawn, ast.Print)):
        return list(stmt.args)
    return []


def _check_unused(program: ast.Program, table: SymbolTable) -> list[Diagnostic]:
    """Locals and parameters that are never read anywhere in their proc."""
    diags = []
    for proc in program.procs:
        param_names = {p.name for p in proc.params}
        read_names: set[str] = set()
        effect_bound: set[str] = set()
        # _own_exprs excludes Assign targets, so a store alone is not a
        # read; an Index target's subscript expression is a read and is
        # walked separately below.
        for stmt in ast.walk_statements(proc.body):
            for expr in _own_exprs(stmt):
                for node in ast.walk(expr):
                    if isinstance(node, (ast.Name, ast.Index)):
                        read_names.add(node.name)
            if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Index):
                for node in ast.walk(stmt.target.index):
                    if isinstance(node, (ast.Name, ast.Index)):
                        read_names.add(node.name)
            # ``int ack = recv(done);`` stores for the synchronizing side
            # effect; never-reading such a binding is idiomatic.
            value = None
            if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Name):
                value = stmt.value
            elif isinstance(stmt, ast.VarDecl):
                value = stmt.init
            if value is not None and any(
                isinstance(n, (ast.RecvExpr, ast.CallEntry, ast.CallExpr))
                for n in ast.walk(value)
            ):
                effect_bound.add(
                    ast.lvalue_name(stmt.target)
                    if isinstance(stmt, ast.Assign)
                    else stmt.name
                )
        for name, info in sorted(table.locals.get(proc.name, {}).items()):
            if name in read_names or name in effect_bound:
                continue
            kind = "parameter" if name in param_names else "variable"
            decl = _decl_position(proc, table, name, info.decl_node)
            diags.append(
                Diagnostic(
                    code="unused",
                    severity=WARNING,
                    proc=proc.name,
                    node_id=info.decl_node,
                    line=decl,
                    message=f"{kind} {name!r} is never read",
                )
            )
    return diags


def _decl_position(
    proc: ast.ProcDef, table: SymbolTable, name: str, decl_node: int
) -> int:
    for node in ast.walk(proc):
        if node.node_id == decl_node:
            return node.line
    return proc.line
