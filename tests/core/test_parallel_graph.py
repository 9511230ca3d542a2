"""Parallel dynamic graph tests (§6.1, Fig 6.1) — E6."""

import pytest

from repro import compile_program, Machine, ParallelDynamicGraph
from repro.runtime import run_program
from repro.workloads import bank_race, fig61_program


@pytest.fixture(scope="module")
def fig61_graph():
    record = Machine(compile_program(fig61_program()), seed=1).run()
    return record, ParallelDynamicGraph.from_history(record.history)


class TestFig61:
    def test_node_inventory(self, fig61_graph):
        record, graph = fig61_graph
        p1 = next(pid for pid, n in record.process_names.items() if n == "p1")
        ops = [node.op for node in graph.nodes_of(p1)]
        # begin, blocking send (n3), unblock (n5), send(done), end.
        assert ops == ["begin", "send", "unblock", "send", "end"]

    def test_blocking_send_produces_unblock_edge(self, fig61_graph):
        record, _ = fig61_graph
        labels = [e.label for e in record.history.edges]
        assert "unblock" in labels
        assert "msg" in labels
        assert "spawn" in labels

    def test_zero_event_internal_edge(self, fig61_graph):
        """Fig 6.1's e4: the sender's edge from send to unblock contains
        zero events (the sender is suspended throughout)."""
        record, graph = fig61_graph
        p1 = next(pid for pid, n in record.process_names.items() if n == "p1")
        nodes = record.history.nodes
        send_to_unblock = next(
            e
            for e in graph.edges_of(p1)
            if nodes[e.start_uid].op == "send"
            and e.end_uid is not None
            and nodes[e.end_uid].op == "unblock"
        )
        assert send_to_unblock.event_count == 0

    def test_msg_edge_connects_processes(self, fig61_graph):
        record, _ = fig61_graph
        nodes = record.history.nodes
        msg_edges = [e for e in record.history.edges if e.label == "msg"]
        for edge in msg_edges:
            assert nodes[edge.src_uid].pid != nodes[edge.dst_uid].pid


class TestOrdering:
    def test_same_process_edges_ordered(self, fig61_graph):
        record, graph = fig61_graph
        for pid in record.history.per_process:
            edges = graph.edges_of(pid)
            for first, second in zip(edges, edges[1:]):
                assert graph.edge_ordered(first, second)
                assert not graph.edge_ordered(second, first)

    def test_cross_process_causality_through_message(self, fig61_graph):
        record, graph = fig61_graph
        p1 = next(pid for pid, n in record.process_names.items() if n == "p1")
        p2 = next(pid for pid, n in record.process_names.items() if n == "p2")
        # P1's pre-send edge is ordered before P2's post-receive edge.
        p1_first = graph.edges_of(p1)[0]
        p2_after_recv = next(
            e
            for e in graph.edges_of(p2)
            if record.history.nodes[e.start_uid].op == "recv"
        )
        assert graph.edge_ordered(p1_first, p2_after_recv)

    def test_simultaneous_detection(self, fig61_graph):
        record, graph = fig61_graph
        # P3 runs unsynchronised with P1's SV write: its read edge is
        # simultaneous with P1's first edge.
        p1 = next(pid for pid, n in record.process_names.items() if n == "p1")
        p3 = next(pid for pid, n in record.process_names.items() if n == "p3")
        p1_write_edge = next(e for e in graph.edges_of(p1) if "SV" in e.writes)
        p3_read_edge = next(e for e in graph.edges_of(p3) if "SV" in e.reads)
        assert graph.simultaneous(p1_write_edge, p3_read_edge)

    def test_simultaneity_is_irreflexive(self, fig61_graph):
        record, graph = fig61_graph
        for edge in record.history.segments:
            assert not graph.simultaneous(edge, edge)

    def test_concurrent_pairs_symmetry(self, fig61_graph):
        record, graph = fig61_graph
        edges = record.history.segments
        pairs = [(e1, e2) for e1 in edges for e2 in edges if graph.simultaneous(e1, e2)]
        assert pairs
        for e1, e2 in pairs:
            assert graph.simultaneous(e2, e1)

    def test_read_write_sets_recorded(self, fig61_graph):
        record, graph = fig61_graph
        p1 = next(pid for pid, n in record.process_names.items() if n == "p1")
        writes = set()
        for edge in graph.edges_of(p1):
            writes |= edge.writes
        assert writes == {"SV"}


class TestAgainstRacyWorkload:
    def test_racy_edges_are_simultaneous(self):
        record = run_program(bank_race(2, 2), seed=3)
        graph = ParallelDynamicGraph.from_history(record.history)
        depositor_edges = [
            e for e in record.history.segments if "balance" in e.writes
        ]
        assert len(depositor_edges) >= 2
        e1, e2 = depositor_edges[0], depositor_edges[1]
        if e1.pid != e2.pid:
            assert graph.simultaneous(e1, e2)
