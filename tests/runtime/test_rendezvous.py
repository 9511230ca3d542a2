"""Rendezvous/RPC tests (§6.2.3) — language, runtime, ordering, replay."""

import pytest

from repro import compile_program, ParallelDynamicGraph
from repro.core import EmulationPackage, is_race_free
from repro.lang import SemanticError, parse
from repro.runtime import build_interval_index, run_program

SERVER = """
entry compute;
shared int served;

proc server() {
    for (k = 0; k < 2; k = k + 1) {
        accept compute(int x, int y) {
            int result = x * 10 + y;
            reply result;
            served = served + 1;
        }
    }
}

proc main() {
    spawn server();
    int a = call compute(1, 2);
    int b = call compute(3, 4);
    join();
    print(a, b, served);
}
"""


class TestSemantics:
    def test_basic_rpc(self):
        for seed in range(8):
            record = run_program(SERVER, seed=seed)
            assert record.failure is None and record.deadlock is None
            assert record.output[0][1] == "12 34 2"

    def test_implicit_reply_is_zero(self):
        src = """
entry ping;
proc server() { accept ping() { } }
proc main() { spawn server(); int r = call ping(); join(); print(r); }
"""
        record = run_program(src, seed=0)
        assert record.output[0][1] == "0"

    def test_body_runs_while_caller_suspended(self):
        """The caller cannot observe intermediate state: the accept body
        completes its reply before the caller resumes."""
        src = """
entry get;
shared int stage;
proc server() {
    accept get() {
        stage = 1;
        stage = 2;
        reply stage;
    }
}
proc main() { spawn server(); int r = call get(); join(); assert(r == 2); }
"""
        for seed in range(10):
            record = run_program(src, seed=seed)
            assert record.failure is None, seed

    def test_work_after_reply_still_runs(self):
        record = run_program(SERVER, seed=1)
        assert record.shared_final["served"] == 2

    def test_two_servers_one_entry(self):
        src = """
entry work;
chan done;
proc server(int id) {
    accept work(int x) { reply x + id; }
    send(done, id);
}
proc main() {
    spawn server(100);
    spawn server(200);
    int a = call work(1);
    int b = call work(1);
    int d1 = recv(done);
    int d2 = recv(done);
    join();
    print(a + b);
}
"""
        for seed in range(6):
            record = run_program(src, seed=seed)
            assert record.failure is None and record.deadlock is None
            assert record.output[0][1] == "302"  # 101 + 201 in some order

    def test_arity_mismatch_fails(self):
        src = """
entry e;
proc server() { accept e(int a, int b) { reply a; } }
proc main() { spawn server(); int r = call e(1); join(); }
"""
        record = run_program(src, seed=0)
        assert record.failure is not None
        assert "caller passed 1" in record.failure.message

    def test_double_reply_fails(self):
        src = """
entry e;
proc server() { accept e() { reply 1; reply 2; } }
proc main() { spawn server(); int r = call e(); join(); }
"""
        record = run_program(src, seed=0)
        assert record.failure is not None
        assert "double reply" in record.failure.message

    def test_call_with_no_server_deadlocks(self):
        src = "entry e;\nproc main() { int r = call e(); }"
        record = run_program(src, seed=0)
        assert record.deadlock is not None
        assert "call(e)" in record.deadlock.blocked[0][1]

    def test_accept_with_no_caller_deadlocks(self):
        src = "entry e;\nproc main() { accept e() { } }"
        record = run_program(src, seed=0)
        assert record.deadlock is not None
        assert "accept(e)" in record.deadlock.blocked[0][1]


class TestSemanticChecks:
    def test_reply_outside_accept_rejected(self):
        with pytest.raises(SemanticError):
            compile_program("entry e;\nproc main() { reply 1; }")

    def test_call_unknown_entry_rejected(self):
        with pytest.raises(SemanticError):
            compile_program("proc main() { int r = call ghost(); }")

    def test_accept_unknown_entry_rejected(self):
        with pytest.raises(SemanticError):
            compile_program("proc main() { accept ghost() { } }")

    def test_accept_param_shadowing_rejected(self):
        with pytest.raises(SemanticError):
            compile_program(
                "entry e;\nproc main() { int x = 1; accept e(int x) { } }"
            )

    def test_entry_name_collision_rejected(self):
        with pytest.raises(SemanticError):
            compile_program("entry e;\nsem e = 1;\nproc main() { }")

    def test_pretty_round_trip(self):
        from repro.lang import program_to_str

        printed = program_to_str(parse(SERVER))
        assert program_to_str(parse(printed)) == printed
        assert "accept compute(int x, int y)" in printed
        assert "call compute(1, 2)" in printed


class TestOrderingAndRaces:
    def test_rendezvous_edges_present(self):
        record = run_program(SERVER, seed=1)
        labels = [e.label for e in record.history.edges]
        assert labels.count("rendezvous") == 4  # 2 calls x (call+reply edges)

    def test_caller_edge_has_zero_events(self):
        record = run_program(SERVER, seed=1)
        graph = ParallelDynamicGraph.from_history(record.history)
        caller_pid = 0
        call_edges = [
            e
            for e in graph.edges_of(caller_pid)
            if record.history.nodes[e.start_uid].op == "call"
        ]
        assert call_edges
        assert all(e.event_count == 0 for e in call_edges)

    def test_rendezvous_synchronises_shared_access(self):
        """State handed across the rendezvous is ordered: race-free."""
        src = """
entry put;
shared int box;
proc owner() {
    accept put(int v) {
        box = v;
        reply 0;
    }
    print(box);
}
proc main() { spawn owner(); int ack = call put(9); join(); }
"""
        for seed in range(6):
            record = run_program(src, seed=seed)
            assert is_race_free(record.history), seed

    def test_unsynchronised_access_still_races(self):
        src = """
entry nudge;
shared int X;
proc server() {
    accept nudge() { reply 0; }
    X = 1;
}
proc bystander() { X = 2; }
proc main() {
    spawn server();
    spawn bystander();
    int ack = call nudge();
    join();
}
"""
        record = run_program(src, seed=0)
        assert not is_race_free(record.history)


class TestReplay:
    def test_caller_replay_consumes_reply_from_log(self):
        record = run_program(SERVER, seed=2)
        emulation = EmulationPackage(record)
        index = build_interval_index(record.logs[0])
        main_info = next(i for i in index.values() if i.proc_name == "main")
        result = emulation.replay(0, main_info.interval_id)
        assert not result.halted, result.diagnostics
        assert result.output == ["12 34 2"]

    def test_server_replay_consumes_args_from_log(self):
        record = run_program(SERVER, seed=2)
        server_pid = next(
            pid for pid, name in record.process_names.items() if name == "server"
        )
        emulation = EmulationPackage(record)
        index = build_interval_index(record.logs[server_pid])
        info = next(i for i in index.values() if i.proc_name == "server")
        result = emulation.replay(server_pid, info.interval_id)
        assert not result.halted, result.diagnostics
        assert not [d for d in result.diagnostics if "divergence" in d]
        # The replay rebuilt both accept bodies' events.
        results = [e.value for e in result.events if e.var == "result"]
        assert results == [12, 34]

    def test_implicit_reply_replay(self):
        src = """
entry ping;
proc server() { accept ping() { } }
proc main() { spawn server(); int r = call ping(); join(); print(r); }
"""
        record = run_program(src, seed=0)
        server_pid = 1
        emulation = EmulationPackage(record)
        index = build_interval_index(record.logs[server_pid])
        info = next(iter(index.values()))
        result = emulation.replay(server_pid, info.interval_id)
        assert not result.halted, result.diagnostics
