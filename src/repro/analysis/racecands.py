"""Static race-candidate analysis (§6 restricted by §4.1/§5.5 facts).

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

Every fact the analysis reads comes from one walk of each procedure
(:class:`ProgramFacts`), and each later step runs only for the pairs that
need it: the concurrency analysis once some variable has a writer, the
lockset dataflow once a concurrent pair exists and the program declares a
token, and main's join quiescence once such a pair has a site in ``main``.

Site identities match what the runtime records into
:class:`~repro.runtime.tracing.Segment` site lists: shared *reads* carry
the ``Name``/``Index`` expression node id, shared *writes* carry the
assigning statement's node id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..lang import ast
from .cfg import CFG, build_cfgs
from .dataflow import Summaries
from .interproc import CallGraph, build_call_graph
from .symbols import SymbolTable

#: Matches repro.runtime.machine._MAX_SITES: segment site lists at this
#: length may be truncated, so site-level pruning must not trust them.
DEFAULT_SITE_CAP = 64

WRITE_WRITE = "write/write"
READ_WRITE = "read/write"

_NOTHING: frozenset[str] = frozenset()


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
    #: segment site lists at this length may be truncated (see machine.py)
    site_cap: int = DEFAULT_SITE_CAP

    #: The :class:`ProgramFacts` the analysis read, so lint reuses its walk
    #: and lockset analysis.  Not a field: equality and ``repr`` skip it.
    facts = None

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
# One walk per procedure
# --------------------------------------------------------------------------


class ProcFacts:
    """Everything the analysis reads of one procedure, from one walk.

    CFG-node facts are keyed by the node that evaluates the statement (an
    expression belongs to the node of the statement that evaluates it).
    """

    __slots__ = (
        "sites",
        "site_node",
        "spawns",
        "calls",
        "takes",
        "releases",
        "sem_v",
        "spawn_nodes",
        "join_nodes",
    )

    def __init__(self) -> None:
        #: shared access sites: the writes in statement order, then the
        #: reads in walk order
        self.sites: list[AccessSite] = []
        #: site node id -> the CFG node that performs the access
        self.site_node: dict[int, int] = {}
        #: (target, spawned inside a loop body) per ``spawn`` statement
        self.spawns: list[tuple[str, bool]] = []
        #: CFG node -> the user procedures its expressions call
        self.calls: dict[int, list[str]] = {}
        #: CFG node -> the lock or semaphore it takes (``lock``/``P``)
        self.takes: dict[int, str] = {}
        #: CFG node -> the lock or semaphore it releases (``unlock``/``V``)
        self.releases: dict[int, str] = {}
        #: CFG node -> the semaphore it ``V``s (the P/V-discipline check)
        self.sem_v: dict[int, str] = {}
        self.spawn_nodes: set[int] = set()
        self.join_nodes: set[int] = set()


def _walk_procedure(
    proc: ast.ProcDef,
    shared: set[str],
    proc_names: set[str],
    node_of_stmt: dict[int, int],
) -> ProcFacts:
    """Record *proc*'s facts in one walk of its body.

    *shared* holds the shared names the procedure does not shadow;
    *node_of_stmt* maps statements to CFG nodes (empty when only sites and
    spawns are wanted).  Nodes are visited in :func:`repro.lang.ast.walk`
    order; the order of the pairs, which lint and the scans report in,
    follows from it.
    """
    facts = ProcFacts()
    name = proc.name
    writes: list[AccessSite] = []
    reads: list[AccessSite] = []
    site_node = facts.site_node
    calls = facts.calls

    def expression(root: ast.Node, owner: Optional[int], target: Optional[ast.Node]) -> None:
        # An Assign's target is written, not read; its subscript is read.
        stack = [root]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is ast.Name or kind is ast.Index:
                if node is not target and node.name in shared:
                    reads.append(AccessSite(name, node.node_id, node.name, False, node.line))
                    if owner is not None:
                        site_node[node.node_id] = owner
            elif kind is ast.CallExpr and node.name in proc_names and owner is not None:
                calls.setdefault(owner, []).append(node.name)
            children = node._children
            if children is None:
                children = ast.iter_child_nodes(node)
            if children:
                stack.extend(reversed(children))

    def statement(stmt: ast.Stmt, in_loop: bool) -> None:
        owner = node_of_stmt.get(stmt.node_id)
        kind = type(stmt)
        target = None
        if kind is ast.Assign:
            target = stmt.target
            if target.name in shared:
                writes.append(AccessSite(name, stmt.node_id, target.name, True, stmt.line))
                if owner is not None:
                    site_node[stmt.node_id] = owner
        elif kind is ast.Spawn:
            facts.spawns.append((stmt.name, in_loop))
            if owner is not None:
                facts.spawn_nodes.add(owner)
        elif kind is ast.While or kind is ast.For:
            in_loop = True
        elif owner is not None:
            if kind is ast.SemP:
                facts.takes[owner] = stmt.sem
            elif kind is ast.LockStmt:
                facts.takes[owner] = stmt.lock
            elif kind is ast.SemV:
                facts.releases[owner] = facts.sem_v[owner] = stmt.sem
            elif kind is ast.UnlockStmt:
                facts.releases[owner] = stmt.lock
            elif kind is ast.Join:
                facts.join_nodes.add(owner)
        children = stmt._children
        if children is None:
            children = ast.iter_child_nodes(stmt)
        for child in children:
            if isinstance(child, ast.Stmt):
                statement(child, in_loop)
            elif isinstance(child, ast.Expr):
                expression(child, owner, target)

    statement(proc.body, False)
    writes.extend(reads)
    facts.sites = writes
    return facts


def _shared_in(table: SymbolTable, proc: str) -> set[str]:
    """The shared names *proc* can see (locals shadow shared variables)."""
    return set(table.shared).difference(table.locals.get(proc, ()))


class ProgramFacts:
    """The per-procedure facts of one program, and the concurrency and
    lockset analyses built on them, each computed on first use.

    Reading :attr:`procs` walks every procedure once; :meth:`concurrency`
    and :meth:`locksets` read only what that walk recorded.  Lint's
    lock-cycle check asks the candidate set's facts for the locksets, so a
    lint after the candidate analysis computes them at most once.
    """

    def __init__(
        self,
        program: ast.Program,
        table: SymbolTable,
        call_graph: CallGraph,
        cfgs: dict[str, CFG],
    ) -> None:
        self.program = program
        self.table = table
        self.call_graph = call_graph
        self.cfgs = cfgs
        self._procs: Optional[dict[str, ProcFacts]] = None
        self._concurrency: Optional[ConcurrencyInfo] = None
        self._locksets: Optional[LocksetInfo] = None

    @property
    def procs(self) -> dict[str, ProcFacts]:
        """Procedure name -> its facts (walks every procedure on first read)."""
        if self._procs is None:
            proc_names = set(self.program.proc_names)
            self._procs = {
                proc.name: _walk_procedure(
                    proc,
                    _shared_in(self.table, proc.name),
                    proc_names,
                    self.cfgs[proc.name].node_of_stmt,
                )
                for proc in self.program.procs
            }
        return self._procs

    @property
    def declared_tokens(self) -> frozenset[str]:
        """Locks and binary semaphores, before the P/V-discipline check."""
        table = self.table
        return frozenset(table.locks) | frozenset(
            name for name, initial in table.semaphores.items() if initial == 1
        )

    def site_node(self, site: AccessSite) -> Optional[int]:
        """The CFG node that performs *site*'s access (``None``: unknown)."""
        return self.procs[site.proc].site_node.get(site.node_id)

    def concurrency(self) -> ConcurrencyInfo:
        if self._concurrency is None:
            self._concurrency = _concurrency(self.procs, self.call_graph)
        return self._concurrency

    def locksets(self) -> LocksetInfo:
        """The must-held lockset analysis rooted at every process root."""
        if self._locksets is None:
            self._locksets = _locksets(
                self.procs,
                self.call_graph,
                self.cfgs,
                self.declared_tokens,
                set(self.concurrency().procs_under_root),
            )
        return self._locksets


def collect_access_sites(
    program: ast.Program, table: SymbolTable
) -> list[AccessSite]:
    """Every static shared read/write site, with runtime-matching node ids."""
    proc_names = set(program.proc_names)
    sites: list[AccessSite] = []
    for proc in program.procs:
        facts = _walk_procedure(proc, _shared_in(table, proc.name), proc_names, {})
        sites.extend(facts.sites)
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

    #: proc -> the roots it runs under, built on the first query (not a
    #: field)
    _roots = None

    def roots_of(self, proc: str) -> frozenset[str]:
        """The roots *proc* runs under."""
        roots = self._roots
        if roots is None:
            grouped: dict[str, set[str]] = {}
            for root, under in self.procs_under_root.items():
                for name in under:
                    grouped.setdefault(name, set()).add(root)
            roots = self._roots = {name: frozenset(rs) for name, rs in grouped.items()}
        return roots.get(proc, _NOTHING)

    def concurrent_procs(self, p1: str, p2: str) -> bool:
        """May *p1* and *p2* run in two distinct concurrent processes?"""
        roots1 = self.roots_of(p1)
        roots2 = self.roots_of(p2)
        if not roots1 or not roots2:
            return False
        if len(roots1) > 1 or len(roots2) > 1:
            return True  # two distinct roots can be picked
        (root1,) = roots1
        (root2,) = roots2
        return root1 != root2 or root1 in self.multi_instance_roots


def analyze_concurrency(program: ast.Program, graph: CallGraph) -> ConcurrencyInfo:
    """Roots, call-reachability under each root, and multi-instance roots.

    A *root* is ``main`` or any spawned procedure; a procedure runs under a
    root if it is call-reachable from it (spawns start a new root, so they
    do not extend the instance).  A root is multi-instance if it is
    spawned at more than one site, spawned from inside a loop, or spawned
    by a procedure that itself runs under a multi-instance root.
    """
    proc_names = set(program.proc_names)
    procs = {
        proc.name: _walk_procedure(proc, set(), proc_names, {}) for proc in program.procs
    }
    return _concurrency(procs, graph)


def _concurrency(procs: dict[str, ProcFacts], graph: CallGraph) -> ConcurrencyInfo:
    info = ConcurrencyInfo()
    spawn_counts: dict[str, int] = {}
    for targets in graph.spawns.values():
        for target in targets:
            spawn_counts.setdefault(target, 0)
    looped: set[str] = set()
    for facts in procs.values():
        for target, in_loop in facts.spawns:
            spawn_counts[target] = spawn_counts.get(target, 0) + 1
            if in_loop:
                looped.add(target)

    roots = {"main"} | set(spawn_counts)
    for root in roots:
        seen: set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(graph.calls.get(name, ()))
        info.procs_under_root[root] = seen

    spawners: dict[str, set[str]] = {}
    for spawner, targets in graph.spawns.items():
        for target in targets:
            spawners.setdefault(target, set()).add(spawner)
    multi = {t for t, n in spawn_counts.items() if n > 1} | looped
    # Fixpoint: a proc spawned (even once, outside loops) by something that
    # can itself be multiply instantiated is multi-instance too.
    changed = True
    while changed:
        changed = False
        under_multi = set().union(*(info.procs_under_root[m] for m in multi))
        for root in roots - multi:
            if not spawners.get(root, _NOTHING).isdisjoint(under_multi):
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
    facts = ProgramFacts(program, table, graph, cfgs)
    return _locksets(facts.procs, graph, cfgs, facts.declared_tokens, set(roots))


def _locksets(
    procs: dict[str, ProcFacts],
    graph: CallGraph,
    cfgs: dict[str, CFG],
    tokens: frozenset[str],
    roots: set[str],
) -> LocksetInfo:
    while True:
        info = _locksets_for_tokens(procs, graph, cfgs, tokens, roots)
        undisciplined = {
            sem
            for name, facts in procs.items()
            for node, sem in facts.sem_v.items()
            if sem in tokens and sem not in info.held_at(name, node)
        }
        if not undisciplined:
            return info
        tokens = tokens - undisciplined


def _locksets_for_tokens(
    procs: dict[str, ProcFacts],
    graph: CallGraph,
    cfgs: dict[str, CFG],
    tokens: frozenset[str],
    roots: set[str],
) -> LocksetInfo:
    info = LocksetInfo(tokens=tokens)

    # Transitive may-release per proc (union over calls; spawns excluded —
    # the spawned process has its own lockset).
    release = {
        name: {token for token in facts.releases.values() if token in tokens}
        for name, facts in procs.items()
    }
    changed = True
    while changed:
        changed = False
        for name in procs:
            for callee in graph.calls.get(name, ()):
                extra = release[callee] - release[name]
                if extra:
                    release[name] |= extra
                    changed = True
    info.may_release = release

    # Each node's transfer as (kill, gen): held_after = (held - kill) | gen.
    # Calls inside a statement may release tokens on the caller's behalf.
    transfers: dict[str, dict[int, tuple[frozenset[str], frozenset[str]]]] = {}
    for name, facts in procs.items():
        table: dict[int, tuple[frozenset[str], frozenset[str]]] = {}
        for node, callees in facts.calls.items():
            kill = frozenset().union(*(release[callee] for callee in callees))
            if kill:
                table[node] = (kill, _NOTHING)
        for node, token in facts.takes.items():
            if token in tokens:
                table[node] = (table.get(node, (_NOTHING,))[0], frozenset((token,)))
        for node, token in facts.releases.items():
            if token in tokens:
                kill, gen = table.get(node, (_NOTHING, _NOTHING))
                table[node] = (kill | {token}, gen)
        transfers[name] = table

    top = tokens  # must-lattice top: "all tokens held" (before first visit)

    def run_proc(name: str, held_at_entry: frozenset[str]) -> dict[int, frozenset[str]]:
        """Must-held set *before* each CFG node of proc *name*."""
        cfg = cfgs[name]
        succs = cfg.succs
        transfer = transfers[name]
        held_in: dict[int, frozenset[str]] = {cfg.entry: held_at_entry}
        worklist = deque((cfg.entry,))
        while worklist:
            node_id = worklist.popleft()
            after = held_in[node_id]
            effect = transfer.get(node_id)
            if effect is not None:
                after = (after - effect[0]) | effect[1]
            for succ, _label in succs[node_id]:
                current = held_in.get(succ)
                merged = after if current is None else (current & after)
                if merged != current:
                    held_in[succ] = merged
                    worklist.append(succ)
        return {n: held_in.get(n, top) for n in cfg.nodes}

    # Interprocedural fixpoint: entry lockset of a callee is the
    # intersection of the caller locksets at its call sites.  Entries only
    # shrink from top, so this terminates.  A procedure whose entry did not
    # change keeps its last solution.
    entry = {name: (_NOTHING if name in roots else top) for name in procs}
    solved: dict[str, tuple[frozenset[str], dict[int, frozenset[str]]]] = {}
    while True:
        per_proc = {}
        for name in procs:
            last = solved.get(name)
            if last is None or last[0] != entry[name]:
                last = solved[name] = (entry[name], run_proc(name, entry[name]))
            per_proc[name] = last[1]
        call_site_held: dict[str, list[frozenset[str]]] = {n: [] for n in procs}
        for name, facts in procs.items():
            held = per_proc[name]
            for node, callees in facts.calls.items():
                for callee in callees:
                    call_site_held[callee].append(held[node])
        new_entry = {}
        for name in procs:
            if name in roots or not call_site_held[name]:
                # Spawned instances start with nothing held (and a proc
                # that is both called and spawned must be safe on both
                # paths); never-called procs get no guarantee either.
                new_entry[name] = _NOTHING
            else:
                new_entry[name] = frozenset.intersection(*call_site_held[name])
        if new_entry == entry:
            break
        entry = new_entry

    info.entry = entry
    for name, held in per_proc.items():
        for node_id, tokens_held in held.items():
            info.at_node[(name, node_id)] = tokens_held
    return info


# --------------------------------------------------------------------------
# Join quiescence: main's post-join (and pre-spawn) regions
# --------------------------------------------------------------------------


def _main_quiescent_nodes(
    procs: dict[str, ProcFacts], graph: CallGraph, cfgs: dict[str, CFG]
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
    if "main" not in cfgs or "main" not in procs:
        return set()
    if any(target == "main" for facts in procs.values() for target, _ in facts.spawns):
        return set()
    # Procs whose call-reachable closure contains a ``spawn``.
    spawning = {name for name, facts in procs.items() if facts.spawns}
    changed = True
    while changed:
        changed = False
        for name in procs:
            if name not in spawning and not spawning.isdisjoint(graph.calls.get(name, ())):
                spawning.add(name)
                changed = True

    main = procs["main"]
    cfg = cfgs["main"]

    def transfer(node_id: int, state: bool) -> bool:
        if node_id in main.spawn_nodes:
            return False
        if node_id in main.join_nodes:
            return True
        if not spawning.isdisjoint(main.calls.get(node_id, ())):
            return False
        return state

    state_in: dict[int, bool] = {cfg.entry: True}
    worklist = deque((cfg.entry,))
    while worklist:
        node_id = worklist.popleft()
        after = transfer(node_id, state_in[node_id])
        for succ, _label in cfg.succs[node_id]:
            current = state_in.get(succ)
            merged = after if current is None else (current and after)
            if merged != current:
                state_in[succ] = merged
                worklist.append(succ)
    return {n for n, s in state_in.items() if s}


def _direct_child_roots(
    procs: dict[str, ProcFacts], under: dict[str, set[str]]
) -> set[str]:
    """Roots whose every instance is a *direct* child of the initial main:
    all their spawn sites live in procs belonging exclusively to main's
    call closure."""
    spawn_site_procs: dict[str, set[str]] = {}
    for name, facts in procs.items():
        for target, _ in facts.spawns:
            spawn_site_procs.setdefault(target, set()).add(name)
    main_closure = under.get("main", set())
    elsewhere = set().union(*(procs_ for r, procs_ in under.items() if r != "main"))
    return {
        root
        for root, site_procs in spawn_site_procs.items()
        if all(p in main_closure and p not in elsewhere for p in site_procs)
    }


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
    """Compute the static race-candidate set for *program*.

    The steps run in demand order, each only if the one before left work:

    1. collect the sites in one walk of each procedure (a program that
       declares no shared variable returns before the walk, one with no
       site right after it);
    2. form the pairs that have a writer and whose procedures may run
       concurrently;
    3. drop pairs a common must-held token orders, running the lockset
       dataflow (with its P/V-discipline loop) only if a pair survived
       step 2 and the program declares a token;
    4. drop pairs main's join quiescence orders, running that analysis only
       if a surviving pair has a site in ``main``.

    The call graph and CFGs are built when not given; *summaries* is not
    read.  The result carries its :class:`ProgramFacts` for lint.
    """
    if call_graph is None:
        call_graph = build_call_graph(program)
    if cfgs is None:
        cfgs = build_cfgs(program)
    facts = ProgramFacts(program, table, call_graph, cfgs)
    if not table.shared:
        return _candidate_set(facts, [], {}, [], site_cap)

    sites = [site for proc in facts.procs.values() for site in proc.sites]
    by_var: dict[str, list[AccessSite]] = {}
    for site in sites:
        by_var.setdefault(site.var, []).append(site)

    # Step 2: pairs with a writer, in procedures that may run concurrently.
    surviving: list[tuple[str, AccessSite, AccessSite]] = []
    for var, var_sites in by_var.items():
        if not any(site.write for site in var_sites):
            continue
        concurrent = facts.concurrency().concurrent_procs
        for i, a in enumerate(var_sites):
            # A site pairs with itself too: two concurrent instances of the
            # same procedure may both execute the same write site.
            for b in var_sites[i:]:
                if not (a.write or b.write):
                    continue
                if a is b and not a.write:
                    continue
                if concurrent(a.proc, b.proc):
                    surviving.append((var, a, b))

    # Step 3: a common must-held token orders them on every path.
    if surviving and facts.declared_tokens:
        locksets = facts.locksets()
        held_by_site: dict[int, frozenset[str]] = {}

        def held(site: AccessSite) -> frozenset[str]:
            tokens = held_by_site.get(site.node_id)
            if tokens is None:
                node = facts.site_node(site)
                # An unknown position holds nothing.
                tokens = _NOTHING if node is None else locksets.held_at(site.proc, node)
                held_by_site[site.node_id] = tokens
            return tokens

        surviving = [(v, a, b) for v, a, b in surviving if held(a).isdisjoint(held(b))]

    # Step 4: main's join quiescence orders them.
    if any(a.proc == "main" or b.proc == "main" for _, a, b in surviving):
        quiescent = _main_quiescent_nodes(facts.procs, call_graph, cfgs)
        concurrency = facts.concurrency()
        direct_children = _direct_child_roots(facts.procs, concurrency.procs_under_root)

        def ordered_by_join(x: AccessSite, y: AccessSite) -> bool:
            """x sits in a quiescent region of main and every instance that
            can execute y is a direct child of main — the join edges order
            them."""
            if x.proc != "main" or facts.site_node(x) not in quiescent:
                return False
            return all(
                root == "main" or root in direct_children
                for root in concurrency.roots_of(y.proc)
            )

        surviving = [
            (v, a, b)
            for v, a, b in surviving
            if not (ordered_by_join(a, b) or ordered_by_join(b, a))
        ]

    pairs = []
    for var, a, b in surviving:
        kind = WRITE_WRITE if (a.write and b.write) else READ_WRITE
        first, second = (a, b) if a.node_id <= b.node_id else (b, a)
        pairs.append(CandidatePair(variable=var, kind=kind, site_a=first, site_b=second))
    return _candidate_set(facts, sites, by_var, pairs, site_cap)


def _conflicts(pairs: list[CandidatePair]) -> dict[tuple[int, str], frozenset[int]]:
    conflicts: dict[tuple[int, str], set[int]] = {}
    for pair in pairs:
        conflicts.setdefault((pair.site_a.node_id, pair.variable), set()).add(
            pair.site_b.node_id
        )
        conflicts.setdefault((pair.site_b.node_id, pair.variable), set()).add(
            pair.site_a.node_id
        )
    return {k: frozenset(v) for k, v in conflicts.items()}


def _candidate_set(
    facts: ProgramFacts,
    sites: list[AccessSite],
    by_var: dict[str, list[AccessSite]],
    pairs: list[CandidatePair],
    site_cap: int,
) -> RaceCandidates:
    candidates = RaceCandidates(
        variables=frozenset(pair.variable for pair in pairs),
        pairs=pairs,
        sites_by_var=by_var,
        conflicts_by_node=_conflicts(pairs),
        known_sites=frozenset((s.node_id, s.var) for s in sites),
        site_cap=site_cap,
    )
    candidates.facts = facts
    return candidates


def candidates_from_compiled(compiled, site_cap: int = DEFAULT_SITE_CAP) -> RaceCandidates:
    """Convenience wrapper over a ``CompiledProgram``-shaped bundle."""
    return analyze_candidates(
        compiled.program,
        compiled.table,
        compiled.call_graph,
        compiled.summaries,
        compiled.cfgs,
        site_cap=site_cap,
    )
