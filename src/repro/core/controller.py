"""The PPD Controller: the debugging phase (§3.2.3, Fig 3.3).

A :class:`PPDSession` owns one recorded ('logged') execution and
incrementally builds the dynamic program dependence graph:

* :meth:`start` finds "the last prelog whose corresponding postlog has not
  yet been generated" (§5.3) and replays that e-block, producing the first
  graph fragment, rooted at the last statement executed;
* :meth:`expand_subgraph` replays the nested interval behind a sub-graph
  node when the user asks for its execution detail;
* :meth:`resolve_extern` crosses process boundaries (§5.6): given a shared
  value imported at a sync-unit start, it locates the internal edges of
  other processes that could have produced it — flagging a race when more
  than one could (§6.3);
* flowback queries delegate to :mod:`repro.core.flowback`.

The traces that exist at any moment are exactly those the user's queries
required — that is incremental tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs import hooks as _obs
from ..perf import ReplayCache, ReplayPool, replay_cache
from ..runtime.logging import IntervalInfo, Prelog, innermost_open
from ..runtime.machine import ExecutionRecord
from .dynamic_graph import (
    DATA,
    SUBGRAPH,
    DynamicGraph,
    DynamicGraphBuilder,
    DynNode,
)
from .emulation import EmulationPackage, ReplayResult
from .flowback import (
    FlowbackResult,
    flow_forward,
    flowback,
    subgraph_frontier,
    why_value,
)
from .parallel_graph import InternalEdge, ParallelDynamicGraph
from .races import Race, RaceScanResult, find_races_indexed


@dataclass
class ExternResolution:
    """Where a cross-process shared value could have come from (§5.6)."""

    var: str
    extern_uid: int
    #: internal edges (other processes) that wrote the variable and are the
    #: latest writers not ordered after the import point
    candidates: list[InternalEdge] = field(default_factory=list)
    #: True when several unordered writers could have produced the value —
    #: exactly the §6.3 situation ("we cannot tell which happened first")
    is_race: bool = False
    #: the replayed writer event, if the controller chased it down
    writer_node: Optional[DynNode] = None
    writer_replay: Optional[ReplayResult] = None


class PPDSession:
    """One interactive debugging session over a recorded execution."""

    def __init__(
        self,
        record: ExecutionRecord,
        cache: Optional[ReplayCache] = None,
        pool: Optional[ReplayPool] = None,
    ) -> None:
        self.record = record
        self.compiled = record.compiled
        self.emulation = EmulationPackage(record)
        self.builder = DynamicGraphBuilder(self.compiled.cfgs, self.compiled.database)
        self.parallel_graph = ParallelDynamicGraph.from_history(record.history)
        self._uid_base = 0
        self._race_candidates = None
        self._localize_result = None
        self._replayed: dict[tuple[int, int], ReplayResult] = {}
        self._trace_of_sync: dict[int, int] = {}
        self.events_generated = 0
        #: The replay cache holds *base-0* results keyed by record digest,
        #: so it is shared across sessions (and server rehydrations) by
        #: default; pass an explicit cache to isolate a session.
        self.cache: Optional[ReplayCache] = cache if cache is not None else replay_cache()
        self.pool: Optional[ReplayPool] = pool
        if self.pool is not None and self.pool.cache is None:
            self.pool.cache = self.cache

    def attach_pool(self, jobs: Union[int, str, None] = None) -> ReplayPool:
        """Attach a process pool so prefetches fan out to workers (§7).

        ``jobs`` may be an int, ``None`` (one worker per available CPU),
        or ``"auto"`` — CPU-sized with the adaptive serial-vs-pooled
        dispatch policy, so small expansions never pay pool tax."""
        if self.pool is None:
            self.pool = ReplayPool(self.record, jobs=jobs, cache=self.cache)
        return self.pool

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        return self.builder.graph

    def start(self, pid: Optional[int] = None) -> ReplayResult:
        """Begin the session at the halt point (§5.3).

        Locates the innermost open interval of the failing process (or the
        given / main process) and replays it.  For runs that completed
        normally, replays the root interval instead.
        """
        if pid is None:
            if self.record.failure is not None:
                pid = self.record.failure.pid
            elif self.record.breakpoint_hit is not None:
                pid = self.record.breakpoint_hit.pid
            else:
                pid = 0
        intervals = self.emulation.indexes[pid]
        open_interval = innermost_open(intervals)
        if open_interval is not None:
            return self.expand_interval(pid, open_interval.interval_id)
        roots = [info for info in intervals.values() if info.parent is None]
        if not roots:
            raise ValueError(f"process {pid} has no log intervals to replay")
        return self.expand_interval(pid, roots[0].interval_id)

    def expand_interval(self, pid: int, interval_id: int) -> ReplayResult:
        """Replay one interval and splice its trace into the dynamic graph."""
        key = (pid, interval_id)
        if key in self._replayed:
            if _obs.enabled:
                _obs.on_replay_cache_hit(pid, interval_id)
            return self._replayed[key]
        # Replay at base 0 (through the shared cache/pool), then rebase
        # into this session's uid space — byte-identical to replaying
        # natively at the current base.
        result = self._replay_base0(pid, interval_id).rebased(self._uid_base)
        self._uid_base += len(result.events) + 1
        self._replayed[key] = result
        self.events_generated += len(result.events)
        self.builder.add_events(result.events)
        self._trace_of_sync.update(result.trace_of_sync)
        self.builder.add_sync_edges(self.record.history, self._trace_of_sync)
        return result

    def _replay_base0(self, pid: int, interval_id: int) -> ReplayResult:
        """One base-0 replay, served from the shared cache when warm."""
        if self.pool is not None:
            return self.pool.replay(pid, interval_id)
        if self.cache is not None:
            cached = self.cache.get(self.record, pid, interval_id)
            if cached is not None:
                return cached
        result = self.emulation.replay(pid, interval_id, uid_base=0)
        if self.cache is not None:
            self.cache.put(self.record, pid, interval_id, result)
        return result

    def prefetch(self, requests) -> int:
        """Warm the replay cache for upcoming expansions (no splicing).

        With a pool attached the batch fans out to worker processes; the
        subsequent :meth:`expand_interval` calls then splice warm results
        sequentially, which keeps the dynamic graph byte-identical to a
        fully serial session.  Returns the number of replays requested.
        """
        pending = [
            key
            for key in dict.fromkeys(
                (int(pid), int(interval_id)) for pid, interval_id in requests
            )
            if key not in self._replayed
        ]
        if not pending:
            return 0
        if self.pool is not None:
            self.pool.replay_batch(pending)
        else:
            for pid, interval_id in pending:
                self._replay_base0(pid, interval_id)
        return len(pending)

    def expand_intervals(
        self, requests: list[tuple[int, int]]
    ) -> list[ReplayResult]:
        """Prefetch a batch of intervals in parallel, then splice each in
        request order."""
        requests = [(int(pid), int(interval_id)) for pid, interval_id in requests]
        self.prefetch(requests)
        return [self.expand_interval(pid, iid) for pid, iid in requests]

    def expand_subgraph(self, node_uid: int) -> ReplayResult:
        """Expand a sub-graph node: replay the nested interval behind it and
        stitch the new fragment to the node (incremental tracing, §5.3)."""
        node = self.graph.nodes[node_uid]
        if node.kind != SUBGRAPH or node.interval_id is None:
            raise ValueError(f"node {node_uid} is not an expandable sub-graph node")
        result = self.expand_interval(node.pid, node.interval_id)
        interior = [e.uid for e in result.events]
        self.graph.expansions[node_uid] = interior
        if _obs.enabled:
            _obs.on_subgraph_expansion(node_uid, node.interval_id)

        # Stitch: the callee's %0 (its EV_RET) feeds the sub-graph node, and
        # the callee's last writes of each shared variable feed it too, so
        # flowback can continue through the expansion.
        last_write: dict[str, int] = {}
        ret_uid: Optional[int] = None
        for event in result.events:
            if event.kind == "ret":
                ret_uid = event.uid
            if event.kind == "stmt" and event.var:
                last_write[event.var] = event.uid
        if ret_uid is not None:
            self.graph.add_edge(ret_uid, node_uid, DATA, "%0")
        for var, uid in last_write.items():
            if var in self.compiled.table.shared:
                self.graph.add_edge(uid, node_uid, DATA, var)
        return result

    def expand_subgraphs(self, node_uids: list[int]) -> list[ReplayResult]:
        """Expand several sub-graph nodes: prefetch all their nested
        intervals as one pool batch, then stitch each sequentially."""
        self.prefetch(
            (node.pid, node.interval_id)
            for node in (self.graph.nodes[uid] for uid in node_uids)
            if node.kind == SUBGRAPH and node.interval_id is not None
        )
        return [self.expand_subgraph(uid) for uid in node_uids]

    # ------------------------------------------------------------------
    # Flowback queries (§4)
    # ------------------------------------------------------------------

    def flowback(self, event_uid: int, max_depth: int = 12) -> FlowbackResult:
        if not _obs.enabled:
            return flowback(self.graph, event_uid, max_depth=max_depth)
        start = _obs.clock()
        result = flowback(self.graph, event_uid, max_depth=max_depth)
        _obs.on_flowback_latency(_obs.clock() - start)
        return result

    def flow_forward(self, event_uid: int, max_depth: int = 12) -> FlowbackResult:
        if not _obs.enabled:
            return flow_forward(self.graph, event_uid, max_depth=max_depth)
        start = _obs.clock()
        result = flow_forward(self.graph, event_uid, max_depth=max_depth)
        _obs.on_flowback_latency(_obs.clock() - start)
        return result

    def why_value(self, var: str, pid: Optional[int] = None, max_depth: int = 12):
        if not _obs.enabled:
            return why_value(self.graph, var, pid=pid, max_depth=max_depth)
        start = _obs.clock()
        result = why_value(self.graph, var, pid=pid, max_depth=max_depth)
        _obs.on_flowback_latency(_obs.clock() - start)
        return result

    def flowback_expanding(
        self, event_uid: int, max_depth: int = 12, budget: int = 8
    ) -> FlowbackResult:
        """Flowback that auto-expands sub-graph nodes it runs into.

        This is the paper's interactive loop in one call: each expansion
        replays one more e-block ("the entire process is repeated as
        necessary until the user has enough of the dynamic graph to locate
        their bug", §5.3).
        """
        result = flowback(self.graph, event_uid, max_depth=max_depth)
        expanded = 0
        while expanded < budget:
            frontier = subgraph_frontier(result, self.graph)
            if not frontier:
                break
            # The whole round's frontier is prefetched as one batch (§7:
            # re-execution exploits the multiprocessor), then spliced in
            # frontier order — the same order the serial loop used.
            batch = frontier[: budget - expanded]
            self.expand_subgraphs([node.uid for node in batch])
            expanded += len(batch)
            result = flowback(self.graph, event_uid, max_depth=max_depth)
        return result

    # ------------------------------------------------------------------
    # Races and cross-process dependences (§5.6, §6)
    # ------------------------------------------------------------------

    def race_candidates(self):
        """The static race-candidate set for this program (memoized).

        Computed from the preparatory-phase artifacts already in
        ``self.compiled``; used to prune the dynamic race scans and to
        answer "why is this variable a candidate" with static sites.
        """
        if self._race_candidates is None:
            from ..analysis.racecands import candidates_from_compiled
            from ..runtime.machine import _MAX_SITES

            self._race_candidates = candidates_from_compiled(
                self.compiled, site_cap=_MAX_SITES
            )
        return self._race_candidates

    def races(self) -> RaceScanResult:
        return find_races_indexed(self.parallel_graph, candidates=self.race_candidates())

    def races_on(self, variable: str) -> list[Race]:
        return [r for r in self.races().races if r.variable == variable]

    def why_candidate(self, variable: str) -> str:
        """The static site pairs that make *variable* a race candidate."""
        return self.race_candidates().explain(variable, self.compiled.database)

    def lint(self):
        """Static diagnostics for the debugged program (repro.analysis.lint)."""
        from ..analysis.lint import lint_compiled

        return lint_compiled(self.compiled, candidates=self.race_candidates())

    def localize(self):
        """Faulty-process localization over this execution (memoized).

        Ranks the processes of each behavioural peer group by deviation
        from the group consensus (repro.analysis.localize).
        """
        if self._localize_result is None:
            from ..analysis.localize import localize_graph

            self._localize_result = localize_graph(
                self.parallel_graph, self.record.process_names
            )
        return self._localize_result

    def resolve_extern(self, extern_uid: int, chase: bool = False) -> ExternResolution:
        """Find which process produced an imported shared value (§5.6).

        Uses the parallel dynamic graph: candidate producers are internal
        edges of other processes that wrote the variable and completed
        before the import timestamp; unordered multiple candidates signal a
        race (§6.3).  With ``chase=True`` the controller also replays the
        producing interval to identify the exact writing event.
        """
        extern = self._find_extern(extern_uid)
        if extern is None:
            raise ValueError(f"no extern event with uid {extern_uid}")
        var, timestamp = extern.var, extern.timestamp

        writers = [
            edge
            for edge in self.parallel_graph.internal_edges
            if var in edge.writes
        ]
        # The actual producer in this execution instance: latest writer
        # whose segment closed before the import.  Writers whose segment
        # was still open at the import time are concurrent - candidates too.
        before = [
            e for e in writers if self.parallel_graph.ordered_before_timestamp(e, timestamp)
        ]
        overlapping = [
            e
            for e in writers
            if not self.parallel_graph.ordered_before_timestamp(e, timestamp)
            and self.parallel_graph.node(e.start_uid).timestamp <= timestamp
        ]
        candidates: list[InternalEdge] = []
        if before:
            latest = max(
                before,
                key=lambda e: self.parallel_graph.node(e.end_uid).timestamp,
            )
            candidates.append(latest)
        candidates.extend(overlapping)
        resolution = ExternResolution(
            var=var,
            extern_uid=extern_uid,
            candidates=candidates,
            is_race=len(candidates) > 1,
        )
        if chase and candidates:
            resolution.writer_replay, resolution.writer_node = self._chase_writer(
                candidates[0], var
            )
        return resolution

    def _find_extern(self, extern_uid: int):
        for result in self._replayed.values():
            for extern in result.externs:
                if extern.event_uid == extern_uid:
                    return extern
        return None

    def _chase_writer(self, edge: InternalEdge, var: str):
        """Replay the interval covering *edge* and find its write of *var*."""
        interval = self._interval_covering(edge)
        if interval is None:
            return None, None
        result = self.expand_interval(edge.pid, interval.interval_id)
        writes = [
            e
            for e in result.events
            if e.kind == "stmt" and (e.var == var or e.var.startswith(f"{var}["))
        ]
        if not writes:
            return result, None
        return result, self.graph.nodes.get(writes[-1].uid)

    def _interval_covering(self, edge: InternalEdge) -> Optional[IntervalInfo]:
        """The innermost log interval of edge's process overlapping its span.

        A process's ``begin`` node precedes its root prelog, so overlap (not
        containment) is the right criterion.
        """
        start_ts = self.parallel_graph.node(edge.start_uid).timestamp
        end_ts = (
            self.parallel_graph.node(edge.end_uid).timestamp
            if edge.end_uid is not None
            else None
        )
        log = self.record.logs[edge.pid]
        best: Optional[IntervalInfo] = None
        for info in self.emulation.indexes[edge.pid].values():
            prelog = log.entries[info.start_index]
            if not isinstance(prelog, Prelog):
                continue
            if end_ts is not None and prelog.timestamp > end_ts:
                continue
            if info.end_index is not None:
                postlog_ts = log.entries[info.end_index].timestamp
                if postlog_ts < start_ts:
                    continue
            if best is None or prelog.timestamp >= log.entries[best.start_index].timestamp:
                best = info
        return best

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def failure_event(self) -> Optional[DynNode]:
        """The dynamic-graph node of the failing statement, if replayed."""
        if self.record.failure is None:
            return None
        node_id = self.record.failure.node_id
        matches = [
            n
            for n in self.graph.nodes.values()
            if n.node_id == node_id and n.pid == self.record.failure.pid
        ]
        return matches[-1] if matches else None

    def last_event(self, pid: int) -> Optional[DynNode]:
        """The most recent real event of *pid* (synthetic parameter and
        initial-value nodes are not events)."""
        uids = [
            n.uid
            for n in self.graph.nodes.values()
            if n.pid == pid and 0 <= n.uid < 10**9 and n.kind not in ("param", "initial")
        ]
        return self.graph.nodes[max(uids)] if uids else None

    def replay_count(self) -> int:
        return len(self._replayed)

    def cache_stats(self) -> dict[str, object]:
        """Replay-engine statistics: this session, the shared cache, and
        the pool when one is attached (``ppd stats cache``)."""
        info: dict[str, object] = {"session_replays": len(self._replayed)}
        info["shared"] = self.cache.describe() if self.cache is not None else {}
        if self.pool is not None:
            info["pool"] = self.pool.describe()
        return info

    def describe(self) -> dict[str, object]:
        """A compact, JSON-safe summary of this session.

        Used by the debug service's ``list`` verb; everything here is
        derived deterministically from the record and the queries run so
        far, so it is stable across persist/evict/rehydrate cycles.
        """
        record = self.record
        if record.failure is not None:
            status = f"failed: {record.failure.message}"
        elif record.deadlock is not None:
            status = "deadlocked"
        elif record.breakpoint_hit is not None:
            status = "breakpoint"
        else:
            status = "completed"
        return {
            "status": status,
            "processes": len(record.process_names),
            "steps": record.total_steps,
            "replays": self.replay_count(),
            "events_generated": self.events_generated,
            "graph_nodes": len(self.graph.nodes),
        }
