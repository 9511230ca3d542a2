"""Dynamic-graph builder unit tests (§4.2)."""

from collections import Counter

import pytest

from repro import compile_program, PPDSession
from repro.analysis import postdom
from repro.baselines import run_with_full_trace
from repro.core import DATA, FLOW, SINGULAR, SYNC_EDGE
from repro.core.cli import PPDCommandLine
from repro.core.dynamic_graph import ENTRY, DynamicGraphBuilder
from repro.runtime import run_program
from repro.workloads import bank_safe, fib_recursive, fig41_program, ring_allreduce


def graph_of(source, seed=0, inputs=None):
    session = PPDSession(run_program(source, seed=seed, inputs=inputs))
    session.start()
    return session.graph


class TestNodes:
    def test_assignment_becomes_singular_node(self):
        graph = graph_of("proc main() { int a = 7; print(a); }")
        nodes = graph.find_assignments("a")
        assert len(nodes) == 1
        assert nodes[0].kind == SINGULAR
        assert nodes[0].value == 7

    def test_each_execution_gets_its_own_node(self):
        graph = graph_of(
            "proc main() { int s = 0; for (i = 0; i < 3; i = i + 1) { s = s + 1; } print(s); }"
        )
        s_nodes = graph.find_assignments("s")
        assert len(s_nodes) == 4  # decl + 3 iterations

    def test_predicate_node_per_evaluation(self):
        graph = graph_of(
            "proc main() { int i = 0; while (i < 2) { i = i + 1; } }"
        )
        preds = [n for n in graph.nodes.values() if "while" in n.label]
        assert len(preds) == 3  # true, true, false

    def test_array_element_labels(self):
        graph = graph_of("proc main() { int a[3]; a[1] = 5; print(a[1]); }")
        writes = graph.find_assignments("a[1]")
        assert len(writes) == 1


class TestEdges:
    def test_flow_edges_follow_process_order(self):
        graph = graph_of("proc main() { int a = 1; int b = 2; }")
        a_node = graph.find_assignments("a")[0]
        flows = graph.edges_from(a_node.uid, FLOW)
        assert flows
        assert graph.nodes[flows[0].dst].label.startswith("b")

    def test_data_edge_labels_carry_variable(self):
        graph = graph_of("proc main() { int a = 1; int b = a; }")
        b_node = graph.find_assignments("b")[0]
        (edge,) = graph.edges_into(b_node.uid, DATA)
        assert edge.label == "a"

    def test_loop_carried_data_edge(self):
        graph = graph_of(
            "proc main() { int s = 1; int i = 0; while (i < 2) { s = s + s; i = i + 1; } }"
        )
        s_nodes = graph.find_assignments("s")
        last = s_nodes[-1]
        parents = [n for n, _ in graph.data_parents(last.uid)]
        assert s_nodes[-2].uid in {p.uid for p in parents}

    def test_control_edge_from_governing_predicate_instance(self):
        graph = graph_of(
            "proc main() { for (i = 0; i < 2; i = i + 1) { int unused = i; } }"
        )
        assigns = graph.find_assignments("unused")
        assert len(assigns) == 2
        parents = [graph.control_parent(n.uid) for n in assigns]
        # Each iteration's body hangs off a *different* predicate instance.
        assert parents[0].uid != parents[1].uid

    def test_initial_node_for_never_written_shared(self):
        graph = graph_of("shared int SV;\nproc main() { print(SV); }")
        initials = graph.nodes_of_kind("initial")
        assert any("SV" in n.label for n in initials)

    def test_sync_edges_in_full_trace_graph(self):
        compiled = compile_program(bank_safe(2, 2))
        session = run_with_full_trace(compiled, seed=1)
        sync_edges = [e for e in session.graph.edges if e.kind == SYNC_EDGE]
        assert sync_edges
        cross = [
            e
            for e in sync_edges
            if session.graph.nodes[e.src].pid != session.graph.nodes[e.dst].pid
        ]
        assert cross  # spawn/msg/sem edges span processes


class TestInterior:
    def test_interior_of_inline_call(self):
        compiled = compile_program(fig41_program())
        session = run_with_full_trace(compiled, seed=0)
        call = next(
            n for n in session.graph.nodes.values() if n.kind == "subgraph"
        )
        interior = session.graph.interior_of(call.uid)
        assert interior
        labels = {session.graph.nodes[u].label for u in interior}
        assert any(label.startswith("ENTRY SubD") for label in labels)

    def test_interior_of_unexpanded_replay_subgraph_is_empty(self):
        session = PPDSession(run_program(fig41_program(), seed=0))
        session.start()
        call = next(
            n
            for n in session.graph.nodes.values()
            if n.kind == "subgraph" and n.interval_id is not None
        )
        assert session.graph.interior_of(call.uid) == []


#: A procedure no run calls: no graph builder may derive its control dependence.
UNCALLED = "\nproc idle() { int x = 1; if (x > 0) { x = 2; } }\n"


class TestStaticControlDependence:
    """The builder derives a procedure's static control dependence when it
    first folds an event of that procedure, and never again."""

    @pytest.fixture()
    def derived(self, monkeypatch):
        calls = Counter()
        real = postdom.control_dependence

        def counting(cfg):
            calls[cfg.proc_name] += 1
            return real(cfg)

        monkeypatch.setattr(postdom, "control_dependence", counting)
        return calls

    def test_a_session_derives_only_the_procedures_it_folds(self, derived):
        record = run_program(ring_allreduce(8, deviant=3), seed=0)
        cli = PPDCommandLine(record)
        for line in ("why total", "races", "localize", "why total", "expandable"):
            cli.execute(line)
        folded = {node.proc for node in cli.session.graph.nodes.values()}
        assert derived and max(derived.values()) == 1
        assert set(derived) <= folded
        assert len(derived) < len(record.compiled.cfgs)

    def test_a_full_trace_derives_each_called_procedure_once(self, derived):
        session = run_with_full_trace(compile_program(fib_recursive(6) + UNCALLED))
        assert derived == Counter({"main": 1, "fib": 1})
        assert session.graph.control_parent(session.graph.find_assignments("r")[0].uid)

    def test_a_procedure_without_a_cfg_hangs_off_its_entry(self, derived):
        compiled = compile_program(
            "proc main() { for (i = 0; i < 2; i = i + 1) { int unused = i; } }"
        )
        record = run_with_full_trace(compiled, build_graph=False).record
        builder = DynamicGraphBuilder({}, compiled.database)
        builder.add_events(record.tracer.events)
        graph = builder.graph
        assigns = graph.find_assignments("unused")
        assert len(assigns) == 2
        assert {graph.control_parent(n.uid).kind for n in assigns} == {ENTRY}
        assert not derived
