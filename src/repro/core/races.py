"""Race-condition detection over the parallel dynamic graph (§6.3-§6.4).

Definitions 6.1-6.4 of the paper, verbatim in code:

* two internal edges are *simultaneous* if neither is ordered before the
  other under the Lamport "+" relation;
* ``READ_SET``/``WRITE_SET`` of an edge are the shared variables it
  read/wrote (recorded by the object code during execution);
* two simultaneous edges are *race-free* iff W∩W, W∩R and R∩W are all
  empty; an execution instance is race-free iff every simultaneous pair is.

Section 7 notes that finding **all** conflicting pairs is the expensive
part and that better algorithms were being investigated; this module ships
both the naive all-pairs scan and a variable-indexed scan that only
examines pairs that touch a common variable (benchmark E9 measures the
gap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import hooks as _obs
from ..runtime.tracing import SyncHistory
from .parallel_graph import InternalEdge, ParallelDynamicGraph

WRITE_WRITE = "write/write"
READ_WRITE = "read/write"


@dataclass(frozen=True)
class Race:
    """One detected race: two simultaneous edges conflicting on a variable."""

    variable: str
    kind: str  # WRITE_WRITE | READ_WRITE
    seg_id_a: int
    seg_id_b: int
    pid_a: int
    pid_b: int
    #: (AST node id, var) access sites, for reporting
    sites_a: tuple[tuple[int, str], ...] = ()
    sites_b: tuple[tuple[int, str], ...] = ()

    def involves(self, pid: int) -> bool:
        return pid in (self.pid_a, self.pid_b)


@dataclass
class RaceScanResult:
    """Outcome of one race scan, with work accounting for benchmarks."""

    races: list[Race] = field(default_factory=list)
    pairs_examined: int = 0
    order_checks: int = 0
    #: pairs skipped before any happened-before test because the static
    #: candidate analysis proved their site pairs non-conflicting
    pairs_pruned: int = 0

    @property
    def is_race_free(self) -> bool:
        """Def 6.4: the execution instance is race-free iff no races."""
        return not self.races


def _edge_conflicts(e1: InternalEdge, e2: InternalEdge) -> list[tuple[str, str]]:
    """(variable, kind) pairs violating Def 6.3 for two edges."""
    conflicts: list[tuple[str, str]] = []
    for var in e1.writes & e2.writes:
        conflicts.append((var, WRITE_WRITE))
    for var in (e1.writes & e2.reads) | (e1.reads & e2.writes):
        if (var, WRITE_WRITE) not in conflicts:
            conflicts.append((var, READ_WRITE))
    return conflicts


class _SiteIndex:
    """Each reported segment's access sites by variable, built once per
    scan on the segment's first race: its read sites, then its write
    sites, the first 8 per variable."""

    def __init__(self) -> None:
        self._by_segment: dict[int, dict[str, tuple[tuple[int, str], ...]]] = {}

    def sites(self, edge: InternalEdge, var: str) -> tuple[tuple[int, str], ...]:
        segment = edge.segment
        by_var = self._by_segment.get(segment.seg_id)
        if by_var is None:
            grouped: dict[str, list[tuple[int, str]]] = {}
            for site in segment.read_sites:
                grouped.setdefault(site[1], []).append(site)
            for site in segment.write_sites:
                grouped.setdefault(site[1], []).append(site)
            by_var = {name: tuple(found[:8]) for name, found in grouped.items()}
            self._by_segment[segment.seg_id] = by_var
        return by_var.get(var, ())


def _race_order(race: Race) -> tuple[int, int, str, str]:
    """The one canonical report order, shared by every scan — naive and
    indexed results must compare equal element-for-element."""
    return (race.seg_id_a, race.seg_id_b, race.variable, race.kind)


def _make_races(e1: InternalEdge, e2: InternalEdge, site_index: _SiteIndex) -> list[Race]:
    races = []
    first, second = (e1, e2) if e1.segment.seg_id < e2.segment.seg_id else (e2, e1)
    for var, kind in _edge_conflicts(e1, e2):
        races.append(
            Race(
                variable=var,
                kind=kind,
                seg_id_a=first.segment.seg_id,
                seg_id_b=second.segment.seg_id,
                pid_a=first.pid,
                pid_b=second.pid,
                sites_a=site_index.sites(first, var),
                sites_b=site_index.sites(second, var),
            )
        )
    return races


def find_races_naive(
    history_or_graph: SyncHistory | ParallelDynamicGraph,
    candidates=None,
) -> RaceScanResult:
    """All-pairs scan: check every pair of internal edges (§7's baseline).

    With *candidates* (a :class:`repro.analysis.racecands.RaceCandidates`),
    pairs whose conflicting variables are all statically proven
    non-conflicting skip the happened-before test; the reported races are
    identical because candidates over-approximate the dynamic races.
    """
    graph = _as_graph(history_or_graph)
    result = RaceScanResult()
    site_index = _SiteIndex()
    edges = graph.internal_edges
    seen: set[tuple[int, int, str]] = set()
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1:]:
            result.pairs_examined += 1
            if e1.pid == e2.pid:
                continue
            if candidates is not None:
                conflicts = _edge_conflicts(e1, e2)
                if conflicts and not any(
                    candidates.may_conflict(e1.segment, e2.segment, var)
                    for var, _ in conflicts
                ):
                    result.pairs_pruned += 1
                    continue
            result.order_checks += 1
            if not graph.simultaneous(e1, e2):
                continue
            for race in _make_races(e1, e2, site_index):
                key = (race.seg_id_a, race.seg_id_b, race.variable)
                if key not in seen:
                    seen.add(key)
                    result.races.append(race)
    result.races.sort(key=_race_order)
    if _obs.enabled:
        _obs.on_race_scan(
            "naive",
            result.pairs_examined,
            result.order_checks,
            len(result.races),
            result.pairs_pruned,
        )
    return result


def find_races_indexed(
    history_or_graph: SyncHistory | ParallelDynamicGraph,
    candidates=None,
) -> RaceScanResult:
    """Variable-indexed scan: only pairs sharing a variable (with at least
    one writer) are considered, and ordering goes through the graph's
    :class:`~repro.perf.order_index.OrderIndex` — the "cheaper algorithm"
    of §7.  The scan asks for the index at its first order test, so a
    history with no pair to order (no shared variable has a writer, or
    the candidates rule every pair out) never builds one.
    ``order_checks`` counts the *actual* vector-clock comparisons the index
    performed for this scan (thresholds amortize across pairs), not the
    number of pair tests; it is 0 when the scan made no order test.

    With *candidates* (:class:`repro.analysis.racecands.RaceCandidates`),
    whole variables outside the candidate set are skipped arithmetically
    and surviving pairs are site-checked before any order test; reported
    races are identical to the unpruned scan (the candidates are an
    over-approximation — the property suite asserts this)."""
    graph = _as_graph(history_or_graph)
    result = RaceScanResult()
    index = None  # the graph's order index, taken at the first order test
    comparisons_before = 0

    readers: dict[str, list[InternalEdge]] = {}
    writers: dict[str, list[InternalEdge]] = {}
    for edge in graph.internal_edges:
        for var in edge.reads:
            readers.setdefault(var, []).append(edge)
        for var in edge.writes:
            writers.setdefault(var, []).append(edge)

    seen: set[tuple[int, int, str]] = set()
    site_index = _SiteIndex()

    def check(var: str, kind: str, e1: InternalEdge, e2: InternalEdge) -> None:
        nonlocal index, comparisons_before
        id1, id2 = e1.segment.seg_id, e2.segment.seg_id
        if e1.pid == e2.pid or id1 == id2:
            return
        key = (id1, id2, var) if id1 < id2 else (id2, id1, var)
        if key in seen:
            return
        if index is None:
            index = graph.order_index()
            comparisons_before = index.comparisons
        if index.simultaneous(e1, e2):
            seen.add(key)
            first, second = (e1, e2) if id1 < id2 else (e2, e1)
            result.races.append(
                Race(
                    variable=var,
                    kind=kind,
                    seg_id_a=key[0],
                    seg_id_b=key[1],
                    pid_a=first.pid,
                    pid_b=second.pid,
                    sites_a=site_index.sites(first, var),
                    sites_b=site_index.sites(second, var),
                )
            )

    for var, wlist in writers.items():
        rlist = readers.get(var, [])
        if candidates is not None and var not in candidates.variables:
            # Every pair on this variable is statically non-conflicting;
            # account for them without enumerating.
            skipped = len(wlist) * (len(wlist) - 1) // 2 + len(wlist) * len(rlist)
            result.pairs_examined += skipped
            result.pairs_pruned += skipped
            continue
        for i, e1 in enumerate(wlist):
            for e2 in wlist[i + 1:]:
                result.pairs_examined += 1
                if candidates is not None and not candidates.may_conflict(
                    e1.segment, e2.segment, var
                ):
                    result.pairs_pruned += 1
                    continue
                check(var, WRITE_WRITE, e1, e2)
        for e1 in wlist:
            for e2 in rlist:
                result.pairs_examined += 1
                if candidates is not None and not candidates.may_conflict(
                    e1.segment, e2.segment, var
                ):
                    result.pairs_pruned += 1
                    continue
                if var in e2.segment.writes:
                    # e1 writes var too: covered by the write/write
                    # report above.
                    continue
                check(var, READ_WRITE, e1, e2)

    if index is not None:
        result.order_checks = index.comparisons - comparisons_before
    result.races.sort(key=_race_order)
    if _obs.enabled:
        _obs.on_race_scan(
            "indexed",
            result.pairs_examined,
            result.order_checks,
            len(result.races),
            result.pairs_pruned,
        )
    return result


def races_involving(
    history_or_graph: SyncHistory | ParallelDynamicGraph, variable: str
) -> list[Race]:
    """All races on one shared variable (the §6.3 worked example)."""
    return [
        race
        for race in find_races_indexed(history_or_graph).races
        if race.variable == variable
    ]


def is_race_free(history_or_graph: SyncHistory | ParallelDynamicGraph) -> bool:
    """Def 6.4 for an execution instance."""
    return find_races_indexed(history_or_graph).is_race_free


def _as_graph(value: SyncHistory | ParallelDynamicGraph) -> ParallelDynamicGraph:
    if isinstance(value, ParallelDynamicGraph):
        return value
    # One graph (and hence one OrderIndex) per history object, so repeated
    # scans — races_involving per variable, say — share the index.
    graph = getattr(value, "_ppd_graph", None)
    if graph is None or len(graph.internal_edges) != len(value.segments):
        graph = ParallelDynamicGraph.from_history(value)
        value._ppd_graph = graph  # type: ignore[attr-defined]
    return graph
