"""PPD Controller (session) tests: the §3.2.3 debugging-phase loop."""

import pytest

from repro import compile_program, Machine, PPDSession
from repro.core import SUBGRAPH
from repro.runtime import run_program
from repro.workloads import (
    bank_race,
    buggy_average,
    fib_recursive,
    fig53_program,
    nested_calls,
)


def session_for(source, seed=0, inputs=None):
    record = run_program(source, seed=seed, inputs=inputs)
    return PPDSession(record)


class TestSessionStart:
    def test_start_replays_failing_interval(self):
        session = session_for(buggy_average(5), inputs=[10, 20, 30, 40, 50])
        result = session.start()
        assert result.halted
        assert session.record.failure is not None
        assert session.failure_event() is not None

    def test_start_on_successful_run_replays_root(self):
        session = session_for(nested_calls())
        result = session.start()
        assert not result.halted
        assert result.pid == 0
        assert session.replay_count() == 1

    def test_start_specific_pid(self):
        session = session_for(fig53_program(), seed=1)
        result = session.start(pid=1)
        assert result.pid == 1

    def test_repeated_expansion_is_cached(self):
        session = session_for(nested_calls())
        first = session.start()
        again = session.expand_interval(0, first.interval_id)
        assert again is first
        assert session.replay_count() == 1

    @pytest.mark.parametrize(
        "source, seed, inputs",
        [
            (buggy_average(5), 0, [10, 20, 30, 40, 50]),
            (fig53_program(), 1, None),
        ],
        ids=["halted-starts-at-an-open-interval", "completed-starts-at-a-root"],
    )
    def test_start_indexes_each_log_once(self, monkeypatch, source, seed, inputs):
        """Opening a session and starting it builds each log's interval
        index once: the start picks its interval from the emulation
        package's index instead of indexing the log again."""
        from repro.core import emulation
        from repro.runtime import logging as runtime_logging

        build = runtime_logging.build_interval_index
        built = []

        def counted(log):
            built.append(log.pid)
            return build(log)

        monkeypatch.setattr(emulation, "build_interval_index", counted)
        monkeypatch.setattr(runtime_logging, "build_interval_index", counted)
        record = run_program(source, seed=seed, inputs=inputs)
        PPDSession(record).start()
        assert sorted(built) == sorted(record.logs)


class TestIncrementalExpansion:
    def test_subgraph_expansion_adds_detail(self):
        session = session_for(nested_calls())
        session.start()
        subgraphs = [
            n
            for n in session.graph.nodes.values()
            if n.kind == SUBGRAPH and n.interval_id is not None
        ]
        assert subgraphs  # SubJ is unexpanded initially
        before = len(session.graph.nodes)
        session.expand_subgraph(subgraphs[0].uid)
        assert len(session.graph.nodes) > before

    def test_expansion_registered(self):
        session = session_for(nested_calls())
        session.start()
        node = next(
            n
            for n in session.graph.nodes.values()
            if n.kind == SUBGRAPH and n.interval_id is not None
        )
        session.expand_subgraph(node.uid)
        assert node.uid in session.graph.expansions
        assert session.graph.expansions[node.uid]

    def test_expanding_non_subgraph_raises(self):
        session = session_for(nested_calls())
        result = session.start()
        plain = next(
            n for n in session.graph.nodes.values() if n.kind == "singular"
        )
        with pytest.raises(ValueError):
            session.expand_subgraph(plain.uid)

    def test_incremental_tracing_generates_fewer_events_than_full(self):
        """The headline property: a session that answers one query touches
        far fewer events than exist in the whole execution."""
        compiled = compile_program(fib_recursive(12))
        record = Machine(compiled, seed=0, mode="logged").run()
        session = PPDSession(record)
        session.start()
        # One replay: only the root fib's own events, not the whole tree.
        full = Machine(compiled, seed=0, mode="plain", trace=True).run()
        assert session.events_generated < len(full.tracer.events) / 10

    def test_flowback_expanding_stays_within_budget(self):
        session = session_for(fib_recursive(8))
        result = session.start()
        root = session.last_event(0)
        before = session.replay_count()
        session.flowback_expanding(root.uid, max_depth=6, budget=3)
        assert session.replay_count() - before <= 3


class TestCrossProcess:
    def test_extern_resolution_names_the_writer(self):
        """§5.6: SV imported by the reading process resolves to the process
        that wrote it."""
        source = """
shared int SV;
sem ready = 0;
chan out;
proc writer() { SV = 123; V(ready); }
proc reader() { P(ready); int x = SV + 1; send(out, x); }
proc main() {
    spawn writer();
    spawn reader();
    int r = recv(out);
    join();
    print(r);
    assert(r == 0);
}
"""
        record = run_program(source, seed=2)
        assert record.failure is not None  # r == 124, assert fires
        session = PPDSession(record)
        # Replay the reader to materialise its extern import of SV.
        reader_pid = next(
            pid for pid, name in record.process_names.items() if name == "reader"
        )
        result = session.expand_interval(
            reader_pid,
            next(iter(session.emulation.indexes[reader_pid])),
        )
        externs = [e for e in result.externs if e.var == "SV"]
        assert externs
        resolution = session.resolve_extern(externs[0].event_uid, chase=True)
        assert resolution.candidates
        writer_pid = next(
            pid for pid, name in record.process_names.items() if name == "writer"
        )
        assert resolution.candidates[0].pid == writer_pid
        assert not resolution.is_race
        assert resolution.writer_node is not None
        assert resolution.writer_node.label.startswith("SV")

    def test_extern_resolution_flags_race(self):
        record = run_program(bank_race(2, 2), seed=3)
        session = PPDSession(record)
        races = session.races()
        assert not races.is_race_free
        assert any(r.variable == "balance" for r in races.races)

    def test_races_on_variable(self):
        record = run_program(bank_race(2, 2), seed=3)
        session = PPDSession(record)
        assert session.races_on("balance")
        assert not session.races_on("nonexistent")
