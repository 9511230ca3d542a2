"""The static race-candidate analysis as it stood before it gathered its
facts in one walk per procedure (a differential oracle).

``repro.analysis.racecands`` replaced this module: it walks each
procedure once and runs its lockset and join-quiescence steps only for
the candidate pairs that need them.  ``tests/analysis/test_racecands_differential.py``
holds the current analysis to this one's candidate sets and lockset
information.  The code below is unchanged apart from its imports and this
docstring; its original docstring follows.

Static race-candidate analysis (§6 restricted by §4.1/§5.5 facts).

The dynamic race detector (:mod:`repro.core.races`) enumerates pairs of
simultaneous internal edges and intersects their READ/WRITE sets.  Most of
those pairs can never race: the two accesses live in procedures that are
never concurrently active, or every path to both holds a common mutual-
exclusion token (a lock, or a binary semaphore used with P/V discipline),
which orders them under the Lamport "+" relation the detector uses.

This module computes, entirely statically, the set of **candidate site
pairs**: (write, write) and (read, write) pairs of shared-variable access
sites that

* belong to process instances that may run concurrently (derived from the
  call graph and the spawn structure), and
* are not both dominated by a common must-held mutual-exclusion token
  (a forward must-dataflow over each CFG, with interprocedural entry
  locksets via intersection over call sites).

The result is an over-approximation of the dynamic races: every race the
detector can report corresponds to a candidate pair (the soundness guard
in ``tests/analysis/test_lint_properties.py`` checks exactly that), so
``find_races_*(..., candidates=...)`` may skip non-candidate pairs without
changing its output.

Site identities match what the runtime records into
:class:`~repro.runtime.tracing.Segment` site lists: shared *reads* carry
the ``Name``/``Index`` expression node id, shared *writes* carry the
assigning statement's node id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.lang import ast
from repro.analysis.cfg import CFG, build_cfgs
from repro.analysis.dataflow import Summaries
from repro.analysis.effects import analyze_program
from repro.analysis.interproc import CallGraph, build_call_graph, compute_summaries
from repro.analysis.symbols import SymbolTable

#: Matches repro.runtime.machine._MAX_SITES: segment site lists at this
#: length may be truncated, so site-level pruning must not trust them.
DEFAULT_SITE_CAP = 64

WRITE_WRITE = "write/write"
READ_WRITE = "read/write"


@dataclass(frozen=True)
class AccessSite:
    """One static shared-variable access site."""

    proc: str
    node_id: int  # expression node id for reads, statement node id for writes
    var: str
    write: bool
    line: int


@dataclass(frozen=True)
class CandidatePair:
    """Two access sites that may produce a dynamic race."""

    variable: str
    kind: str  # WRITE_WRITE | READ_WRITE
    site_a: AccessSite
    site_b: AccessSite


@dataclass
class RaceCandidates:
    """The static candidate set, queryable by the dynamic race scans."""

    #: shared variables with at least one candidate pair
    variables: frozenset[str]
    pairs: list[CandidatePair]
    #: every static shared access site, by variable
    sites_by_var: dict[str, list[AccessSite]] = field(default_factory=dict)
    #: (site node id, var) -> node ids it may conflict with
    conflicts_by_node: dict[tuple[int, str], frozenset[int]] = field(default_factory=dict)
    #: (node id, var) keys of every known static site (unknown ids are
    #: treated conservatively as conflicting)
    known_sites: frozenset[tuple[int, str]] = frozenset()
    #: mutual-exclusion tokens that survived the P/V-discipline check
    mutex_tokens: frozenset[str] = frozenset()
    #: segment site lists at this length may be truncated (see machine.py)
    site_cap: int = DEFAULT_SITE_CAP
    #: pairs dropped by the bytecode effect refinement (an endpoint the
    #: lowered code provably never executes as a shared access)
    effect_pruned: int = 0

    def pair_count(self, variable: Optional[str] = None) -> int:
        if variable is None:
            return len(self.pairs)
        return sum(1 for p in self.pairs if p.variable == variable)

    def _segment_truncated(self, segment) -> bool:
        return (
            len(segment.read_sites) >= self.site_cap
            or len(segment.write_sites) >= self.site_cap
        )

    def may_conflict(self, seg_a, seg_b, var: str) -> bool:
        """May these two segments race on *var*?  ``False`` is a proof.

        *seg_a*/*seg_b* are :class:`~repro.runtime.tracing.Segment`-shaped
        (``read_sites``/``write_sites`` lists of ``(node_id, var)``).
        Truncated site lists and unknown site ids degrade to ``True``.
        """
        if var not in self.variables:
            return False
        if self._segment_truncated(seg_a) or self._segment_truncated(seg_b):
            return True
        nodes_a = {n for (n, v) in seg_a.read_sites if v == var}
        nodes_a |= {n for (n, v) in seg_a.write_sites if v == var}
        nodes_b = {n for (n, v) in seg_b.read_sites if v == var}
        nodes_b |= {n for (n, v) in seg_b.write_sites if v == var}
        for node in nodes_a | nodes_b:
            if (node, var) not in self.known_sites:
                return True  # a site the static pass did not enumerate
        for node in nodes_a:
            partners = self.conflicts_by_node.get((node, var))
            if partners and not partners.isdisjoint(nodes_b):
                return True
        return False

    def explain(self, variable: str, database=None) -> str:
        """Why is *variable* a race candidate?  Lists the static site
        pairs involved; with a :class:`ProgramDatabase` the sites are
        rendered with statement labels and source text."""
        pairs = [p for p in self.pairs if p.variable == variable]
        if not pairs:
            return f"{variable!r} is not a race candidate (statically excluded)"
        lines = [f"{variable!r}: {len(pairs)} candidate site pair(s)"]
        for pair in pairs:
            lines.append(
                f"  {pair.kind}: {_site_text(pair.site_a, database)}"
                f"  <->  {_site_text(pair.site_b, database)}"
            )
        return "\n".join(lines)


def _site_text(site: AccessSite, database=None) -> str:
    kind = "write" if site.write else "read"
    base = f"{site.proc}:{site.line} ({kind})"
    if database is None:
        return base
    label = database.statement_label(site.node_id)
    if not label and not site.write:
        # Read sites carry expression node ids; fall back to the site line.
        return base
    text = database.statement_text(site.node_id)
    return f"{base} {label}: {text}" if label else base


# --------------------------------------------------------------------------
# Access-site collection
# --------------------------------------------------------------------------


def _shared_name(name: str, proc: str, table: SymbolTable) -> bool:
    return name in table.shared and name not in table.locals.get(proc, {})


def collect_access_sites(
    program: ast.Program, table: SymbolTable
) -> list[AccessSite]:
    """Every static shared read/write site, with runtime-matching node ids."""
    sites: list[AccessSite] = []
    for proc in program.procs:
        # Assign targets are not evaluated as reads; remember their node ids.
        target_nodes: set[int] = set()
        for stmt in ast.walk_statements(proc.body):
            if isinstance(stmt, ast.Assign):
                target_nodes.add(stmt.target.node_id)
                name = ast.lvalue_name(stmt.target)
                if _shared_name(name, proc.name, table):
                    sites.append(
                        AccessSite(
                            proc=proc.name,
                            node_id=stmt.node_id,
                            var=name,
                            write=True,
                            line=stmt.line,
                        )
                    )
        for node in ast.walk(proc.body):
            if isinstance(node, (ast.Name, ast.Index)):
                if node.node_id in target_nodes:
                    continue
                if _shared_name(node.name, proc.name, table):
                    sites.append(
                        AccessSite(
                            proc=proc.name,
                            node_id=node.node_id,
                            var=node.name,
                            write=False,
                            line=node.line,
                        )
                    )
    return sites


# --------------------------------------------------------------------------
# Process-concurrency analysis
# --------------------------------------------------------------------------


@dataclass
class ConcurrencyInfo:
    """Which procedures may execute in concurrently-active processes."""

    #: root procedure ("main" or a spawn target) -> procs call-reachable
    #: from it (these run *inside* an instance of that root process)
    procs_under_root: dict[str, set[str]] = field(default_factory=dict)
    #: roots that may have two simultaneous process instances
    multi_instance_roots: set[str] = field(default_factory=set)

    def concurrent_procs(self, p1: str, p2: str) -> bool:
        """May *p1* and *p2* run in two distinct concurrent processes?"""
        for r1, under1 in self.procs_under_root.items():
            if p1 not in under1:
                continue
            for r2, under2 in self.procs_under_root.items():
                if p2 not in under2:
                    continue
                if r1 != r2:
                    return True
                if r1 in self.multi_instance_roots:
                    return True
        return False


def _spawn_sites_in_loops(program: ast.Program) -> set[str]:
    """Spawn targets spawned from inside a loop body."""
    looped: set[str] = set()

    def visit(stmt: ast.Stmt, in_loop: bool) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.body:
                visit(child, in_loop)
        elif isinstance(stmt, ast.If):
            visit(stmt.then, in_loop)
            if stmt.orelse is not None:
                visit(stmt.orelse, in_loop)
        elif isinstance(stmt, (ast.While, ast.For)):
            visit(stmt.body, True)
        elif isinstance(stmt, ast.Accept):
            visit(stmt.body, in_loop)
        elif isinstance(stmt, ast.Spawn) and in_loop:
            looped.add(stmt.name)

    for proc in program.procs:
        visit(proc.body, False)
    return looped


def analyze_concurrency(program: ast.Program, graph: CallGraph) -> ConcurrencyInfo:
    """Roots, call-reachability under each root, and multi-instance roots.

    A *root* is ``main`` or any spawned procedure; a procedure runs under a
    root if it is call-reachable from it (spawns start a new root, so they
    do not extend the instance).  A root is multi-instance if it is
    spawned at more than one site, spawned from inside a loop, or spawned
    by a procedure that itself runs under a multi-instance root.
    """
    info = ConcurrencyInfo()
    spawn_counts: dict[str, int] = {}
    for spawner, targets in graph.spawns.items():
        for target in targets:
            spawn_counts[target] = spawn_counts.get(target, 0)
    for proc in program.procs:
        for node in ast.walk(proc.body):
            if isinstance(node, ast.Spawn):
                spawn_counts[node.name] = spawn_counts.get(node.name, 0) + 1

    roots = {"main"} | set(spawn_counts)

    def call_reachable(root: str) -> set[str]:
        seen: set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(graph.calls.get(name, ()))
        return seen

    for root in roots:
        info.procs_under_root[root] = call_reachable(root)

    looped = _spawn_sites_in_loops(program)
    multi = {t for t, n in spawn_counts.items() if n > 1} | looped
    # Fixpoint: a proc spawned (even once, outside loops) by something that
    # can itself be multiply instantiated is multi-instance too.
    changed = True
    while changed:
        changed = False
        for root in sorted(roots - multi):
            spawners = {
                p for p, targets in graph.spawns.items() if root in targets
            }
            if any(
                spawner in info.procs_under_root.get(mroot, ())
                for spawner in spawners
                for mroot in sorted(multi)
            ):
                multi.add(root)
                changed = True
    info.multi_instance_roots = multi
    return info


# --------------------------------------------------------------------------
# Must-held lockset analysis
# --------------------------------------------------------------------------


@dataclass
class LocksetInfo:
    """Per-procedure must-held mutual-exclusion tokens."""

    #: valid tokens: locks + P/V-disciplined binary semaphores
    tokens: frozenset[str]
    #: proc -> tokens held on every path at procedure entry
    entry: dict[str, frozenset[str]] = field(default_factory=dict)
    #: (proc, CFG node id) -> tokens held on every path before the node
    at_node: dict[tuple[str, int], frozenset[str]] = field(default_factory=dict)
    #: proc -> tokens it (transitively) may release
    may_release: dict[str, set[str]] = field(default_factory=dict)

    def held_at(self, proc: str, cfg_node: int) -> frozenset[str]:
        return self.at_node.get((proc, cfg_node), frozenset())


def _stmt_user_calls(stmt: ast.Stmt, proc_names: set[str]) -> list[str]:
    calls = []
    for node in _own_exprs(stmt):
        for sub in ast.walk(node):
            if isinstance(sub, ast.CallExpr) and sub.name in proc_names:
                calls.append(sub.name)
    return calls


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


def _direct_releases(proc: ast.ProcDef, tokens: frozenset[str]) -> set[str]:
    released: set[str] = set()
    for stmt in ast.walk_statements(proc.body):
        if isinstance(stmt, ast.SemV) and stmt.sem in tokens:
            released.add(stmt.sem)
        elif isinstance(stmt, ast.UnlockStmt) and stmt.lock in tokens:
            released.add(stmt.lock)
    return released


def analyze_locksets(
    program: ast.Program,
    table: SymbolTable,
    graph: CallGraph,
    cfgs: dict[str, CFG],
    roots: Iterable[str],
) -> LocksetInfo:
    """Forward must-analysis of held mutex tokens over every CFG.

    Tokens are lock names plus binary semaphores (initial value 1) — but a
    binary semaphore only counts if every ``V`` on it happens while it is
    must-held (P/V discipline); a stray ``V`` would break the mutual-
    exclusion guarantee the pruner relies on, so such semaphores are
    demoted and the analysis reruns (the token set only shrinks, so this
    terminates).
    """
    proc_names = set(program.proc_names)
    root_set = set(roots)
    tokens = frozenset(table.locks) | frozenset(
        name for name, initial in table.semaphores.items() if initial == 1
    )

    while True:
        info = _locksets_for_tokens(program, graph, cfgs, proc_names, root_set, tokens)
        undisciplined: set[str] = set()
        for proc in program.procs:
            cfg = cfgs[proc.name]
            for node_id, node in cfg.nodes.items():
                stmt = node.stmt
                if isinstance(stmt, ast.SemV) and stmt.sem in tokens:
                    if stmt.sem not in info.held_at(proc.name, node_id):
                        undisciplined.add(stmt.sem)
        if not undisciplined:
            return info
        tokens = tokens - undisciplined


def _locksets_for_tokens(
    program: ast.Program,
    graph: CallGraph,
    cfgs: dict[str, CFG],
    proc_names: set[str],
    roots: set[str],
    tokens: frozenset[str],
) -> LocksetInfo:
    info = LocksetInfo(tokens=tokens)

    # Transitive may-release per proc (union over calls; spawns excluded —
    # the spawned process has its own lockset).
    release = {
        proc.name: _direct_releases(proc, tokens) for proc in program.procs
    }
    changed = True
    while changed:
        changed = False
        for name in proc_names:
            for callee in graph.calls.get(name, ()):
                extra = release[callee] - release[name]
                if extra:
                    release[name] |= extra
                    changed = True
    info.may_release = release

    top = tokens  # must-lattice top: "all tokens held" (before first visit)
    entry: dict[str, frozenset[str]] = {
        name: (frozenset() if name in roots else top) for name in proc_names
    }

    def run_proc(name: str) -> dict[int, frozenset[str]]:
        """Must-held set *before* each CFG node of proc *name*."""
        cfg = cfgs[name]
        held_in: dict[int, Optional[frozenset[str]]] = {n: None for n in cfg.nodes}
        held_in[cfg.entry] = entry[name]
        worklist = [cfg.entry]
        while worklist:
            node_id = worklist.pop(0)
            before = held_in[node_id]
            if before is None:
                continue
            after = _transfer(cfg.nodes[node_id].stmt, before, tokens, release, proc_names)
            for succ in cfg.successors(node_id):
                current = held_in[succ]
                merged = after if current is None else (current & after)
                if merged != current:
                    held_in[succ] = merged
                    worklist.append(succ)
        return {n: (s if s is not None else top) for n, s in held_in.items()}

    # Interprocedural fixpoint: entry lockset of a callee is the
    # intersection of the caller locksets at its call sites.  Entries only
    # shrink from top, so this terminates.
    while True:
        per_proc = {name: run_proc(name) for name in proc_names}
        new_entry = dict(entry)
        call_site_held: dict[str, list[frozenset[str]]] = {n: [] for n in proc_names}
        for name in proc_names:
            cfg = cfgs[name]
            for node_id, node in cfg.nodes.items():
                if node.stmt is None:
                    continue
                for callee in _stmt_user_calls(node.stmt, proc_names):
                    call_site_held[callee].append(per_proc[name][node_id])
        for name in proc_names:
            if name in roots or not call_site_held[name]:
                # Spawned instances start with nothing held (and a proc
                # that is both called and spawned must be safe on both
                # paths); never-called procs get no guarantee either.
                new_entry[name] = frozenset()
            else:
                new_entry[name] = frozenset.intersection(*call_site_held[name])
        if new_entry == entry:
            break
        entry = new_entry

    info.entry = entry
    for name in proc_names:
        for node_id, held in per_proc[name].items():
            info.at_node[(name, node_id)] = held
    return info


def _transfer(
    stmt: Optional[ast.Stmt],
    held: frozenset[str],
    tokens: frozenset[str],
    release: dict[str, set[str]],
    proc_names: set[str],
) -> frozenset[str]:
    if stmt is None:
        return held
    # Calls inside the statement may release tokens on our behalf.
    for callee in _stmt_user_calls(stmt, proc_names):
        held = held - frozenset(release.get(callee, ()))
    if isinstance(stmt, ast.SemP) and stmt.sem in tokens:
        return held | {stmt.sem}
    if isinstance(stmt, ast.SemV) and stmt.sem in tokens:
        return held - {stmt.sem}
    if isinstance(stmt, ast.LockStmt) and stmt.lock in tokens:
        return held | {stmt.lock}
    if isinstance(stmt, ast.UnlockStmt) and stmt.lock in tokens:
        return held - {stmt.lock}
    return held


# --------------------------------------------------------------------------
# Join quiescence: main's post-join (and pre-spawn) regions
# --------------------------------------------------------------------------


def _spawning_closure(program: ast.Program, graph: CallGraph) -> set[str]:
    """Procs whose call-reachable closure contains a ``spawn``."""
    direct = {
        proc.name
        for proc in program.procs
        if any(isinstance(n, ast.Spawn) for n in ast.walk(proc.body))
    }
    spawning = set(direct)
    changed = True
    while changed:
        changed = False
        for proc in program.procs:
            if proc.name in spawning:
                continue
            if any(c in spawning for c in graph.calls.get(proc.name, ())):
                spawning.add(proc.name)
                changed = True
    return spawning


def _main_quiescent_nodes(
    program: ast.Program, graph: CallGraph, cfgs: dict[str, CFG]
) -> set[int]:
    """CFG nodes of ``main`` where no direct child process can be live.

    A forward must-analysis: ``True`` (quiescent) at procedure entry, reset
    to ``False`` by ``spawn`` (and by calls that may spawn), restored by
    ``join()`` — which waits for *all* live direct children.  An access in
    a quiescent region is ordered with every direct-child instance: it
    happens either before the child's spawn node or after its join edge.
    Empty when ``main`` itself can be spawned (extra instances would void
    the argument).
    """
    spawn_targets = {
        n.name
        for proc in program.procs
        for n in ast.walk(proc.body)
        if isinstance(n, ast.Spawn)
    }
    if "main" in spawn_targets or "main" not in cfgs:
        return set()
    spawning = _spawning_closure(program, graph)
    proc_names = set(program.proc_names)
    cfg = cfgs["main"]

    def transfer(stmt: Optional[ast.Stmt], state: bool) -> bool:
        if stmt is None:
            return state
        if isinstance(stmt, ast.Spawn):
            return False
        if isinstance(stmt, ast.Join):
            return True
        if any(c in spawning for c in _stmt_user_calls(stmt, proc_names)):
            return False
        return state

    state_in: dict[int, Optional[bool]] = {n: None for n in cfg.nodes}
    state_in[cfg.entry] = True
    worklist = [cfg.entry]
    while worklist:
        node_id = worklist.pop(0)
        before = state_in[node_id]
        if before is None:
            continue
        after = transfer(cfg.nodes[node_id].stmt, before)
        for succ in cfg.successors(node_id):
            current = state_in[succ]
            merged = after if current is None else (current and after)
            if merged != current:
                state_in[succ] = merged
                worklist.append(succ)
    return {n for n, s in state_in.items() if s}


def _direct_child_roots(
    program: ast.Program, under: dict[str, set[str]]
) -> set[str]:
    """Roots whose every instance is a *direct* child of the initial main:
    all their spawn sites live in procs belonging exclusively to main's
    call closure."""
    spawn_site_procs: dict[str, set[str]] = {}
    for proc in program.procs:
        for node in ast.walk(proc.body):
            if isinstance(node, ast.Spawn):
                spawn_site_procs.setdefault(node.name, set()).add(proc.name)
    main_closure = under.get("main", set())
    result = set()
    for root, site_procs in spawn_site_procs.items():
        if all(
            p in main_closure
            and not any(p in procs for r, procs in under.items() if r != "main")
            for p in site_procs
        ):
            result.add(root)
    return result


# --------------------------------------------------------------------------
# The candidate analysis
# --------------------------------------------------------------------------


def analyze_candidates(
    program: ast.Program,
    table: SymbolTable,
    call_graph: Optional[CallGraph] = None,
    summaries: Optional[Summaries] = None,
    cfgs: Optional[dict[str, CFG]] = None,
    site_cap: int = DEFAULT_SITE_CAP,
) -> RaceCandidates:
    """Compute the static race-candidate set for *program*."""
    if call_graph is None:
        call_graph = build_call_graph(program)
    if summaries is None:
        summaries = compute_summaries(program, table, call_graph)
    if cfgs is None:
        cfgs = build_cfgs(program)

    sites = collect_access_sites(program, table)
    concurrency = analyze_concurrency(program, call_graph)
    roots = set(concurrency.procs_under_root)
    locksets = analyze_locksets(program, table, call_graph, cfgs, roots)
    quiescent = _main_quiescent_nodes(program, call_graph, cfgs)
    direct_children = _direct_child_roots(program, concurrency.procs_under_root)

    expr_owners = {
        proc.name: _expr_owner_map(cfgs[proc.name], proc) for proc in program.procs
    }

    def site_lockset(site: AccessSite) -> frozenset[str]:
        cfg = cfgs[site.proc]
        if site.write:
            stmt_node = cfg.node_of_stmt.get(site.node_id)
        else:
            stmt_node = expr_owners[site.proc].get(site.node_id)
        if stmt_node is None:
            return frozenset()  # unknown position: assume nothing held
        return locksets.held_at(site.proc, stmt_node)

    by_var: dict[str, list[AccessSite]] = {}
    for site in sites:
        by_var.setdefault(site.var, []).append(site)

    pairs: list[CandidatePair] = []
    lock_cache: dict[tuple[str, int, bool], frozenset[str]] = {}

    def cached_lockset(site: AccessSite) -> frozenset[str]:
        key = (site.proc, site.node_id, site.write)
        if key not in lock_cache:
            lock_cache[key] = site_lockset(site)
        return lock_cache[key]

    def site_cfg_node(site: AccessSite) -> Optional[int]:
        if site.write:
            return cfgs[site.proc].node_of_stmt.get(site.node_id)
        return expr_owners[site.proc].get(site.node_id)

    def ordered_by_join(x: AccessSite, y: AccessSite) -> bool:
        """x sits in a quiescent region of main and every instance that can
        execute y is a direct child of main — the join edges order them."""
        if x.proc != "main":
            return False
        node = site_cfg_node(x)
        if node is None or node not in quiescent:
            return False
        return all(
            root == "main" or root in direct_children
            for root, under in concurrency.procs_under_root.items()
            if y.proc in under
        )

    for var, var_sites in by_var.items():
        for i, a in enumerate(var_sites):
            # A site pairs with itself too: two concurrent instances of the
            # same procedure may both execute the same write site.
            for b in var_sites[i:]:
                if a is b and not a.write:
                    continue
                if not (a.write or b.write):
                    continue
                if not concurrency.concurrent_procs(a.proc, b.proc):
                    continue
                if cached_lockset(a) & cached_lockset(b):
                    continue  # a common token orders them on every path
                if ordered_by_join(a, b) or ordered_by_join(b, a):
                    continue
                kind = WRITE_WRITE if (a.write and b.write) else READ_WRITE
                first, second = (a, b) if a.node_id <= b.node_id else (b, a)
                pairs.append(
                    CandidatePair(variable=var, kind=kind, site_a=first, site_b=second)
                )

    conflicts: dict[tuple[int, str], set[int]] = {}
    for pair in pairs:
        conflicts.setdefault((pair.site_a.node_id, pair.variable), set()).add(
            pair.site_b.node_id
        )
        conflicts.setdefault((pair.site_b.node_id, pair.variable), set()).add(
            pair.site_a.node_id
        )

    return RaceCandidates(
        variables=frozenset(pair.variable for pair in pairs),
        pairs=pairs,
        sites_by_var=by_var,
        conflicts_by_node={k: frozenset(v) for k, v in conflicts.items()},
        known_sites=frozenset((s.node_id, s.var) for s in sites),
        mutex_tokens=locksets.tokens,
        site_cap=site_cap,
    )


def _expr_owner_map(cfg: CFG, proc: ast.ProcDef) -> dict[int, int]:
    """Expression node id -> CFG node of the statement that evaluates it.

    Read sites carry expression node ids; this maps them back to the CFG
    node whose lockset governs the access.
    """
    owners: dict[int, int] = {}
    for stmt in ast.walk_statements(proc.body):
        cfg_node = cfg.node_of_stmt.get(stmt.node_id)
        if cfg_node is None:
            continue
        for expr in _own_exprs(stmt):
            for node in ast.walk(expr):
                owners.setdefault(node.node_id, cfg_node)
    return owners


def refine_with_effects(candidates: RaceCandidates, effects) -> RaceCandidates:
    """Drop candidate pairs the bytecode effect analysis disproves.

    *effects* is a :class:`~repro.analysis.effects.ProgramEffects`.  Its
    ``shared_sites`` set — ``(proc, node_id, var, write)`` tuples taken
    from the lowered bytecode — is a superset of every shared access the
    VM can perform at runtime
    (the hypothesis soundness suite asserts the containment against
    :func:`collect_access_sites`).  A pair endpoint absent from that set
    is therefore an access site the AST walk over-collected but no
    execution ever reaches, so dropping the pair cannot lose a race.

    ``known_sites`` is deliberately left unchanged: a runtime site id the
    static pass never enumerated still degrades :meth:`may_conflict` to
    ``True``.  Dropped pairs surface at scan time as ordinary prunes
    (``debug.races.pairs_pruned``) and are tallied on ``effect_pruned``.
    """
    bytecode_sites = {
        (proc, node_id, var, write)
        for (proc, node_id, var, write) in effects.shared_sites
    }

    def executed(site: AccessSite) -> bool:
        return (site.proc, site.node_id, site.var, site.write) in bytecode_sites

    kept = [
        pair
        for pair in candidates.pairs
        if executed(pair.site_a) and executed(pair.site_b)
    ]
    dropped = len(candidates.pairs) - len(kept)
    if not dropped:
        candidates.effect_pruned = 0
        return candidates

    conflicts: dict[tuple[int, str], set[int]] = {}
    for pair in kept:
        conflicts.setdefault((pair.site_a.node_id, pair.variable), set()).add(
            pair.site_b.node_id
        )
        conflicts.setdefault((pair.site_b.node_id, pair.variable), set()).add(
            pair.site_a.node_id
        )
    return RaceCandidates(
        variables=frozenset(pair.variable for pair in kept),
        pairs=kept,
        sites_by_var=candidates.sites_by_var,
        conflicts_by_node={k: frozenset(v) for k, v in conflicts.items()},
        known_sites=candidates.known_sites,
        mutex_tokens=candidates.mutex_tokens,
        site_cap=candidates.site_cap,
        effect_pruned=dropped,
    )


def candidates_from_compiled(
    compiled, site_cap: int = DEFAULT_SITE_CAP, refine: bool = True
) -> RaceCandidates:
    """Convenience wrapper over a ``CompiledProgram``-shaped bundle.

    With ``refine=True`` (the default) the candidate set is additionally
    filtered through the bytecode effect analysis — see
    :func:`refine_with_effects`."""
    candidates = analyze_candidates(
        compiled.program,
        compiled.table,
        compiled.call_graph,
        compiled.summaries,
        compiled.cfgs,
        site_cap=site_cap,
    )
    if refine:
        candidates = refine_with_effects(candidates, analyze_program(compiled))
    return candidates
