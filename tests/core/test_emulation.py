"""Emulation-package tests: debug-phase replay fidelity (§5.2-§5.3)."""

import pytest

from repro.compiler import EBlockPolicy
from repro.core import EmulationPackage
from repro.runtime import build_interval_index, innermost_open_interval, run_program
from repro.workloads import (
    bank_safe,
    buggy_average,
    fib_recursive,
    fig53_program,
    nested_calls,
)


def interval_of(record, pid, proc_name):
    index = build_interval_index(record.logs[pid])
    return next(i for i in index.values() if i.proc_name == proc_name)


class TestSequentialReplay:
    def test_replay_reproduces_output(self):
        src = 'proc main() { int a = 2; int b = a * 3; print("b =", b); }'
        record = run_program(src, seed=0)
        emu = EmulationPackage(record)
        info = interval_of(record, 0, "main")
        result = emu.replay(0, info.interval_id)
        assert result.output == ["b = 6"]
        assert not result.halted
        assert not result.diagnostics

    def test_replay_consumes_inputs_from_log(self):
        src = "proc main() { int a = input(); int b = input(); print(a - b); }"
        record = run_program(src, inputs=[50, 8])
        emu = EmulationPackage(record)
        info = interval_of(record, 0, "main")
        result = emu.replay(0, info.interval_id)
        assert result.output == ["42"]

    def test_replay_retval(self):
        record = run_program(nested_calls(), seed=0)
        emu = EmulationPackage(record)
        info = interval_of(record, 0, "SubK")
        result = emu.replay(0, info.interval_id)
        assert result.retval == 10

    def test_nested_call_becomes_subgraph(self):
        record = run_program(nested_calls(), seed=0)
        emu = EmulationPackage(record)
        subj = interval_of(record, 0, "SubJ")
        result = emu.replay(0, subj.interval_id)
        # SubK is not re-executed: its postlog substitutes (§5.2).
        assert result.subgraph_intervals
        kinds = {e.kind for e in result.events}
        assert "enter" not in {e.proc for e in result.events if e.proc == "SubK"}
        # But the computed result is identical.
        assert result.retval == 10 + 10  # before=10, inner=10, after=20

    def test_replaying_parent_then_child_matches(self):
        record = run_program(nested_calls(), seed=0)
        emu = EmulationPackage(record)
        subj = interval_of(record, 0, "SubJ")
        subk = interval_of(record, 0, "SubK")
        parent = emu.replay(0, subj.interval_id)
        child = emu.replay(0, subk.interval_id, uid_base=10_000)
        assert child.retval == 10
        # Child replay has strictly more events than the sub-graph stub.
        assert child.event_count > 0

    def test_recursion_replay(self):
        record = run_program(fib_recursive(7), seed=0)
        emu = EmulationPackage(record)
        index = build_interval_index(record.logs[0])
        # Replay the root fib call: nested calls are skipped via postlogs.
        root_fib = min(
            (i for i in index.values() if i.proc_name == "fib"),
            key=lambda i: i.start_index,
        )
        result = emu.replay(0, root_fib.interval_id)
        assert result.retval == 13
        assert len(result.subgraph_intervals) == 2  # fib(6) and fib(5)

    def test_loop_block_skip_and_expand(self):
        record = run_program(
            nested_calls(), seed=0, policy=EBlockPolicy(loop_block_min_stmts=1)
        )
        emu = EmulationPackage(record)
        index = build_interval_index(record.logs[0])
        subk = next(i for i in index.values() if i.proc_name == "SubK")
        loop = next(i for i in index.values() if i.block_kind == "loop")
        # Replaying SubK skips the loop via its postlog...
        outer = emu.replay(0, subk.interval_id)
        assert outer.retval == 10
        assert loop.interval_id in outer.subgraph_intervals.values()
        # ...and the loop interval itself replays on demand.
        inner = emu.replay(0, loop.interval_id, uid_base=5_000)
        assert not inner.halted
        assert any(e.kind == "pred" for e in inner.events)

    def test_loop_that_returns_is_not_a_loop_block(self):
        """A loop postlog cannot record that the loop returned, so a loop
        containing a ``return`` replays inside its procedure's interval."""
        source = (
            "func int find(int n) { int i = 0; while (i < n) { i = i + 1; "
            "if (i == 3) { return i; } i = i + 0; } return -1; }\n"
            "proc main() { int r = find(10); print(r); }"
        )
        record = run_program(source, seed=0, policy=EBlockPolicy(loop_block_min_stmts=1))
        assert record.output == [(0, "3")]
        assert not record.compiled.eblocks.loop_blocks
        emu = EmulationPackage(record)
        index = build_interval_index(record.logs[0])
        assert {info.block_kind for info in index.values()} == {"proc"}
        find = emu.replay(0, interval_of(record, 0, "find").interval_id)
        assert find.retval == 3
        (ret,) = [event for event in find.events if event.kind == "ret"]
        assert ret.value == 3
        assert record.compiled.database.statement_text(ret.node_id) == "return i;"
        for info in index.values():
            result = emu.replay(0, info.interval_id)
            assert not result.halted and not result.diagnostics

    def test_replay_of_open_interval_stops_at_halt_point(self):
        record = run_program(buggy_average(5), inputs=[10, 20, 30, 40, 50])
        assert record.failure is not None
        emu = EmulationPackage(record)
        open_info = innermost_open_interval(record.logs[0])
        result = emu.replay(0, open_info.interval_id)
        assert result.halted
        assert "assertion failed" in result.failure_message

    def test_replay_is_deterministic(self):
        record = run_program(nested_calls(), seed=0)
        emu = EmulationPackage(record)
        info = interval_of(record, 0, "SubJ")
        first = emu.replay(0, info.interval_id)
        second = emu.replay(0, info.interval_id)
        assert [e.to_json() for e in first.events] == [
            e.to_json() for e in second.events
        ]

    def test_uid_base_offsets_events(self):
        record = run_program(nested_calls(), seed=0)
        emu = EmulationPackage(record)
        info = interval_of(record, 0, "SubK")
        result = emu.replay(0, info.interval_id, uid_base=777)
        assert all(e.uid >= 777 for e in result.events)

    def test_needs_logged_record(self):
        record = run_program(nested_calls(), seed=0, mode="plain")
        with pytest.raises(ValueError):
            EmulationPackage(record)


class TestParallelReplay:
    def test_sync_prelog_restores_shared_values(self):
        """Replaying foo3's worker sees the same SV as the original run even
        though the other process mutated it — the sync prelog supplies it."""
        record = run_program(fig53_program(), seed=1)
        assert record.failure is None
        emu = EmulationPackage(record)
        retvals = []
        for pid, name in record.process_names.items():
            if name != "worker":
                continue
            index = build_interval_index(record.logs[pid])
            foo3 = next(
                (i for i in index.values() if i.proc_name == "foo3"), None
            )
            if foo3 is None:
                continue
            result = emu.replay(pid, foo3.interval_id)
            assert not result.halted, result.diagnostics
            retvals.append(result.retval)
        # worker(0,0) takes the P/V branch (a+b = 3); worker(1,1) takes the
        # q branch (a becomes 2, so 2+2 = 4).
        assert sorted(retvals) == [3, 4]

    def test_replay_final_shared_matches_postlog(self):
        """For shared variables the interval itself wrote last, the replay's
        final value matches the recorded postlog.  (Values written by
        *other* processes after our last sync point legitimately differ —
        the postlog snapshots global state, the replay is single-process.)"""
        record = run_program(fig53_program(), seed=1)
        emu = EmulationPackage(record)
        checked = 0
        for pid, name in record.process_names.items():
            index = build_interval_index(record.logs[pid])
            for info in index.values():
                if info.is_open or info.proc_name != "foo3":
                    continue
                postlog = record.logs[pid].entries[info.end_index]
                result = emu.replay(pid, info.interval_id)
                wrote = {
                    e.var for e in result.events if e.kind == "stmt" and e.var
                }
                for var, value in postlog.values.items():
                    if var in wrote:
                        assert result.final_shared[var] == value
                        checked += 1
        assert checked >= 1  # the P/V-branch worker writes SV

    def test_replay_every_closed_interval_cleanly(self):
        """Replay robustness: every closed interval of a race-free parallel
        run replays without divergence diagnostics."""
        record = run_program(bank_safe(2, 3), seed=7)
        emu = EmulationPackage(record)
        total = 0
        for pid, log in record.logs.items():
            for info in build_interval_index(log).values():
                if info.is_open:
                    continue
                result = emu.replay(pid, info.interval_id, uid_base=total * 10_000)
                assert not [d for d in result.diagnostics if "divergence" in d], (
                    pid,
                    info.proc_name,
                    result.diagnostics,
                )
                total += 1
        assert total >= 3  # main + two depositors

    def test_recv_values_replayed(self):
        record = run_program(bank_safe(2, 2), seed=5)
        emu = EmulationPackage(record)
        info = interval_of(record, 0, "main")
        result = emu.replay(0, info.interval_id)
        assert result.output == ["balance = 4"]


class TestWhatIfOverrides:
    def test_modified_arg_changes_result(self):
        record = run_program(nested_calls(), seed=0)
        emu = EmulationPackage(record)
        info = interval_of(record, 0, "SubK")
        modified = emu.replay(0, info.interval_id, prelog_overrides={"n": 3})
        assert modified.retval == 3  # 0+1+2
