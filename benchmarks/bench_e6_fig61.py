"""E6 — Fig 6.1: the parallel dynamic graph of a three-process program.

Checks the figure's distinguishing features — the blocking send's three
nodes (send n3, receive n4, unblock n5), the zero-event internal edge
between n3 and n5, and the msg/unblock sync edges — and benchmarks
parallel-graph construction and the happened-before test.
"""

from conftest import SEED, compiled, report, run_standalone, scale

from repro import Machine, ParallelDynamicGraph
from repro.workloads import fig61_program, pipeline


def _record(seed=None):
    seed = SEED + 1 if seed is None else seed
    return Machine(compiled(fig61_program()), seed=seed, mode="logged").run()


def _regenerate():
    record = _record()
    graph = ParallelDynamicGraph.from_history(record.history)
    nodes = record.history.nodes
    p1 = next(pid for pid, n in record.process_names.items() if n == "p1")
    ops = [node.op for node in graph.nodes_of(p1)]
    send_to_unblock = next(
        e
        for e in graph.edges_of(p1)
        if e.end_uid is not None
        and nodes[e.start_uid].op == "send"
        and nodes[e.end_uid].op == "unblock"
    )
    labels = {e.label for e in record.history.edges}
    rows = [
        ("figure element", "reproduced"),
        ("P1 has send/unblock nodes", ops[1:3] == ["send", "unblock"]),
        ("zero-event internal edge (e4)", send_to_unblock.event_count == 0),
        ("msg edge (n3->n4)", "msg" in labels),
        ("unblock edge (n4->n5)", "unblock" in labels),
        ("spawn edges", "spawn" in labels),
    ]
    report("E6: Fig 6.1 parallel dynamic graph", rows)
    assert all(row[1] is True for row in rows[1:])


def test_e6_fig61(benchmark):
    benchmark.pedantic(_regenerate, rounds=1, iterations=1)


def test_e6_graph_construction(benchmark):
    record = Machine(compiled(pipeline(*scale((4, 20), (3, 8)))), seed=SEED, mode="logged").run()
    graph = benchmark(lambda: ParallelDynamicGraph.from_history(record.history))
    assert graph.edges_of(0)


def test_e6_happened_before_query(benchmark):
    record = Machine(compiled(pipeline(*scale((4, 20), (3, 8)))), seed=SEED, mode="logged").run()
    graph = ParallelDynamicGraph.from_history(record.history)
    edges = record.history.segments

    def all_pairs():
        count = 0
        for e1 in edges:
            for e2 in edges:
                if graph.simultaneous(e1, e2):
                    count += 1
        return count

    simultaneous = benchmark(all_pairs)
    assert simultaneous > 0


if __name__ == "__main__":
    raise SystemExit(run_standalone(globals()))
