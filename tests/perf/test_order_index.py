"""The one happened-before test must equal explicit reachability.

:class:`ParallelDynamicGraph` answers every ordering question from the
history's vector clocks; here each answer is checked against the
transitive closure of program order and the sync edges.  Randomization
comes from the scheduler seed: each seed yields a different
interleaving, hence a different synchronization history — the property
surface the §6 ordering queries must hold over.
"""

import pytest

from repro import Machine, compile_program
from repro.core.parallel_graph import ParallelDynamicGraph
from repro.core.races import find_races_indexed, find_races_naive
from repro.workloads import (
    bank_race,
    dining_philosophers,
    fig61_program,
    producer_consumer,
)
from tests.runtime.test_clocks import _reachability


def _ring_counters(workers: int, rounds: int) -> str:
    """Bench E9's scaling workload (inlined — benchmarks/ is not a
    package): W workers in a ring, each updating its own and its
    successor's counter under per-counter semaphores."""
    decls = "\n".join(f"shared int c{i};\nsem m{i} = 1;" for i in range(workers))
    procs = []
    for i in range(workers):
        j = (i + 1) % workers
        procs.append(
            f"""
proc worker{i}() {{
    for (k = 0; k < {rounds}; k = k + 1) {{
        P(m{i});
        c{i} = c{i} + 1;
        V(m{i});
        P(m{j});
        c{j} = c{j} + 1;
        V(m{j});
    }}
    send(done, {i});
}}"""
        )
    spawns = "\n    ".join(f"spawn worker{i}();" for i in range(workers))
    return f"""
{decls}
chan done;
{"".join(procs)}

proc main() {{
    {spawns}
    for (w = 0; w < {workers}; w = w + 1) {{
        int ack = recv(done);
    }}
    join();
}}
"""


WORKLOADS = [
    ("fig61", fig61_program(), range(3)),
    ("bank_race", bank_race(3, 2), range(5)),
    ("producer_consumer", producer_consumer(3, 2), range(4)),
    ("dining", dining_philosophers(4), range(3)),
]


def histories():
    for name, source, seeds in WORKLOADS:
        compiled = compile_program(source)
        for seed in seeds:
            record = Machine(compiled, seed=seed, mode="logged").run()
            yield f"{name}/seed={seed}", record.history


@pytest.fixture(scope="module")
def all_histories():
    return list(histories())


class TestIndexEqualsDirect:
    def test_simultaneous_matches_direct_clocks(self, all_histories):
        for label, history in all_histories:
            graph = ParallelDynamicGraph.from_history(history)
            reach = _reachability(history)

            def before(a, b):
                return a.end_uid is not None and b.start_uid in reach[a.end_uid]

            edges = history.segments
            for i, e1 in enumerate(edges):
                for e2 in edges[i + 1:]:
                    expected = not before(e1, e2) and not before(e2, e1)
                    assert graph.simultaneous(e1, e2) == expected, (
                        f"{label}: segs {e1.seg_id}/{e2.seg_id}"
                    )

    def test_edge_ordered_matches_direct_clocks(self, all_histories):
        for label, history in all_histories:
            graph = ParallelDynamicGraph.from_history(history)
            reach = _reachability(history)
            for e1 in history.segments:
                for e2 in history.segments:
                    if e1.seg_id == e2.seg_id:
                        continue
                    expected = e1.end_uid is not None and e2.start_uid in reach[e1.end_uid]
                    assert graph.edge_ordered(e1, e2) == expected, (
                        f"{label}: {e1.seg_id}->{e2.seg_id}"
                    )

    def test_node_ordered_matches_node_reaches(self, all_histories):
        for label, history in all_histories:
            graph = ParallelDynamicGraph.from_history(history)
            reach = _reachability(history)
            uids = list(history.nodes)
            for a in uids:
                for b in uids:
                    assert graph.node_ordered(a, b) == (b in reach[a]), f"{label}: {a}->{b}"


class TestScansAgree:
    def test_indexed_equals_naive_on_randomized_histories(self, all_histories):
        for label, history in all_histories:
            naive = find_races_naive(history)
            indexed = find_races_indexed(history)
            assert naive.races == indexed.races, label

    def test_scan_order_is_deterministic(self, all_histories):
        """Regression: both scans report in one canonical order — naive
        used to return scan order while indexed sorted."""
        key = lambda r: (r.seg_id_a, r.seg_id_b, r.variable, r.kind)
        for label, history in all_histories:
            naive = find_races_naive(history)
            assert naive.races == sorted(naive.races, key=key), label
            again = find_races_naive(history)
            assert again.races == naive.races, label

    def test_indexed_comparisons_not_worse_than_pre_index_scan(self):
        """``order_checks`` counts one happened-before test per pair
        tested, pinned on bench E9's ring workload against a replica of
        the scan's pair enumeration that counts ``simultaneous()``
        calls."""
        from repro.core.races import WRITE_WRITE, _edge_conflicts

        for workers in (2, 4):
            source = _ring_counters(workers, rounds=3)
            record = Machine(compile_program(source), seed=2, mode="logged").run()
            assert record.failure is None and record.deadlock is None
            graph = ParallelDynamicGraph.from_history(record.history)
            readers, writers = {}, {}
            for edge in record.history.segments:
                for var in edge.reads:
                    readers.setdefault(var, []).append(edge)
                for var in edge.writes:
                    writers.setdefault(var, []).append(edge)

            # Replica of the scan: one test per candidate pair that got
            # past the seen-set.
            seen, pre_change_checks = set(), 0

            def old_check(var, e1, e2):
                nonlocal pre_change_checks
                if e1.pid == e2.pid or e1.seg_id == e2.seg_id:
                    return
                a, b = sorted((e1.seg_id, e2.seg_id))
                if (a, b, var) in seen:
                    return
                pre_change_checks += 1
                if graph.simultaneous(e1, e2):
                    seen.add((a, b, var))

            for var, wlist in writers.items():
                for i, e1 in enumerate(wlist):
                    for e2 in wlist[i + 1:]:
                        old_check(var, e1, e2)
                for e1 in wlist:
                    for e2 in readers.get(var, ()):
                        if (var, WRITE_WRITE) in _edge_conflicts(e1, e2):
                            continue
                        old_check(var, e1, e2)

            scan = find_races_indexed(record.history)
            assert scan.order_checks == pre_change_checks, (
                f"workers={workers}: {scan.order_checks} != {pre_change_checks}"
            )
            assert scan.races == find_races_naive(record.history).races


class TestGraphIndexes:
    def test_edges_of_uses_per_pid_index(self, all_histories):
        _, history = all_histories[0]
        graph = ParallelDynamicGraph.from_history(history)
        for pid in history.per_process:
            expected = [e for e in history.segments if e.pid == pid]
            assert graph.edges_of(pid) == expected
        assert "_edges_by_pid" in graph.__dict__

    def test_nodes_of_matches_per_process_order(self, all_histories):
        _, history = all_histories[0]
        graph = ParallelDynamicGraph.from_history(history)
        for pid, uids in history.per_process.items():
            assert [n.uid for n in graph.nodes_of(pid)] == uids
