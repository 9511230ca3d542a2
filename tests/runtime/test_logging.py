"""Log-file tests: entries, intervals, nesting, serialisation (§3.2.2, §5)."""

import json
import random
from pathlib import Path

from repro.compiler import EBlockPolicy
from repro.runtime import (
    InputLog,
    PCLArray,
    Prelog,
    SyncLog,
    SyncPrelog,
    build_interval_index,
    innermost_open_interval,
    run_program,
)
from repro.runtime.logging import decode_value, encode_value, snapshot_values
from repro.workloads import (
    bank_race,
    buggy_average,
    fib_recursive,
    fig53_program,
    nested_calls,
    producer_consumer,
    ring_allreduce,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: The end-to-end benchmark's programs (bench/local.py): race_hunt,
#: deep_flowback, spmd_localize, and the served mix.
BENCH_PROGRAMS = {
    "bank_race(32,75)": bank_race(32, 75),
    "fib_recursive(15)": fib_recursive(15),
    "ring_allreduce(32)": ring_allreduce(32, deviant=random.Random(0).randrange(32)),
    "buggy_average": buggy_average(),
    "bank_race(4,50)": bank_race(4, 50),
    "producer_consumer(50,2)": producer_consumer(50, 2),
}


class TestLogContents:
    def test_proc_eblocks_log_pre_and_post(self):
        record = run_program(nested_calls(), seed=0)
        log = record.logs[0]
        counts = log.entry_counts()
        # main, SubJ, SubK each prelog+postlog once.
        assert counts["Prelog"] == 3
        assert counts["Postlog"] == 3

    def test_prelog_captures_args(self):
        record = run_program(nested_calls(), seed=0)
        prelogs = [e for e in record.logs[0] if isinstance(e, Prelog)]
        subj = next(p for p in prelogs if p.proc_name == "SubJ")
        assert subj.args == [5]

    def test_postlog_captures_retval(self):
        record = run_program(nested_calls(), seed=0)
        index = build_interval_index(record.logs[0])
        subk = next(i for i in index.values() if i.proc_name == "SubK")
        postlog = record.logs[0].entries[subk.end_index]
        assert postlog.has_retval
        assert postlog.retval == 10  # 0+1+2+3+4

    def test_prelog_captures_shared_ref(self):
        record = run_program(fig53_program(), seed=1)
        for pid, log in record.logs.items():
            for entry in log:
                if isinstance(entry, Prelog) and entry.proc_name == "foo3":
                    assert "SV" in entry.values
                    return
        raise AssertionError("no foo3 prelog found")

    def test_inputs_logged(self):
        src = "proc main() { print(input() + rand(10)); }"
        record = run_program(src, inputs=[5])
        kinds = [e.source for e in record.logs[0] if isinstance(e, InputLog)]
        assert kinds == ["input", "rand"]

    def test_recv_value_logged(self):
        src = """
chan c;
proc a() { send(c, 77); }
proc main() { spawn a(); int v = recv(c); join(); }
"""
        record = run_program(src, seed=0)
        recvs = [e for e in record.logs[0] if isinstance(e, InputLog) and e.source == "recv"]
        assert [e.value for e in recvs] == [77]

    def test_sync_prelog_emitted_after_p(self):
        record = run_program(fig53_program(), seed=1)
        found = any(
            isinstance(entry, SyncPrelog) and "SV" in entry.values
            for log in record.logs.values()
            for entry in log
        )
        assert found

    def test_plain_mode_produces_no_log(self):
        record = run_program(nested_calls(), seed=0, mode="plain")
        assert record.log_entry_count() == 0


class TestIntervals:
    def test_nesting_tree(self):
        record = run_program(nested_calls(), seed=0)
        index = build_interval_index(record.logs[0])
        by_proc = {info.proc_name: info for info in index.values()}
        assert by_proc["SubK"].parent == by_proc["SubJ"].interval_id
        assert by_proc["SubJ"].parent == by_proc["main"].interval_id
        assert by_proc["main"].parent is None
        assert by_proc["SubJ"].children == [by_proc["SubK"].interval_id]

    def test_recursive_nesting(self):
        record = run_program(fib_recursive(6), seed=0)
        index = build_interval_index(record.logs[0])
        fib_intervals = [i for i in index.values() if i.proc_name == "fib"]
        assert len(fib_intervals) == 25  # calls of fib(6)
        # Every interval is closed (the program completed).
        assert all(not i.is_open for i in index.values())

    def test_open_interval_on_failure(self):
        src = """
func int boom(int x) { assert(x > 0); return x; }
proc main() { int a = boom(-1); }
"""
        record = run_program(src, seed=0)
        assert record.failure is not None
        open_info = innermost_open_interval(record.logs[0])
        assert open_info is not None
        assert open_info.proc_name == "boom"

    def test_no_open_intervals_on_success(self):
        record = run_program(nested_calls(), seed=0)
        assert innermost_open_interval(record.logs[0]) is None

    def test_loop_blocks_create_intervals(self):
        record = run_program(
            nested_calls(),
            seed=0,
            policy=EBlockPolicy(loop_block_min_stmts=1),
        )
        index = build_interval_index(record.logs[0])
        kinds = {info.block_kind for info in index.values()}
        assert "loop" in kinds

    def test_timestamps_monotone_per_process(self):
        record = run_program(fig53_program(), seed=2)
        for log in record.logs.values():
            stamps = [e.timestamp for e in log]
            assert stamps == sorted(stamps)


class TestSerialisation:
    def test_jsonl_round_trip_parses(self):
        record = run_program(fig53_program(), seed=1)
        for log in record.logs.values():
            text = log.to_jsonl()
            if not text:
                continue
            for line in text.splitlines():
                payload = json.loads(line)
                assert "kind" in payload and "t" in payload and "pid" in payload

    def test_byte_size_positive_and_consistent(self):
        record = run_program(nested_calls(), seed=0)
        log = record.logs[0]
        assert log.byte_size() == len(log.to_jsonl()) + 1
        assert record.log_bytes() >= log.byte_size() > 0
        programs = {path.name: path.read_text() for path in sorted(EXAMPLES.glob("*.pcl"))}
        programs.update(BENCH_PROGRAMS)
        for name, source in programs.items():
            record = run_program(source, seed=0)
            for log in record.logs.values():
                expected = len(log.to_jsonl()) + 1 if len(log) else 0
                assert log.byte_size() == expected, (name, log.pid)

    def test_array_values_encode(self):
        src = """
shared int m[3];
func int touch(int x) { m[0] = x; return m[0]; }
proc main() { int a = touch(9); print(a); }
"""
        record = run_program(src, seed=0)
        text = record.logs[0].to_jsonl()
        assert "__array__" in text

    def test_each_sync_entry_is_its_history_node(self):
        """A sync event is logged once: the entry is the node, and the
        log's JSON line names it by uid without a clock."""
        record = run_program(fig53_program(), seed=1)
        history = record.history
        logged = [e for log in record.logs.values() for e in log if isinstance(e, SyncLog)]
        assert len(logged) == len(history.nodes)
        for entry in logged:
            assert history.nodes[entry.uid] is entry
            assert json.loads(entry.to_json()) == {
                "kind": "SyncLog", "t": entry.timestamp, "pid": entry.pid, "uid": entry.uid
            }
        for pid, log in record.logs.items():
            uids = [e.uid for e in log if isinstance(e, SyncLog)]
            assert uids == history.per_process[pid]


class TestValueCopySemantics:
    """Regression tests: snapshot/encode must not alias live values."""

    def test_nested_array_round_trips_through_json(self):
        outer = PCLArray("outer", "int", 2)
        inner = PCLArray("inner", "int", 3)
        inner.set(1, 7)
        outer.items = [inner, 42]
        decoded = decode_value(json.loads(json.dumps(encode_value(outer))))
        assert isinstance(decoded, PCLArray)
        assert isinstance(decoded.items[0], PCLArray)
        assert decoded.items[0].items == [0, 7, 0]
        assert decoded.items[1] == 42

    def test_empty_array_round_trips(self):
        empty = PCLArray("e", "int", 0)
        decoded = decode_value(json.loads(json.dumps(encode_value(empty))))
        assert isinstance(decoded, PCLArray)
        assert decoded.items == []
        assert decoded.elem_type == "int"

    def test_snapshot_is_immune_to_later_mutation(self):
        array = PCLArray("m", "int", 3)
        array.set(0, 1)
        snap = snapshot_values({"m": array, "n": 5})
        # The program keeps running and mutates the array after logging.
        array.set(0, 999)
        assert snap["m"].items == [1, 0, 0]
        assert snap["m"] is not array

    def test_snapshot_deep_copies_nested_arrays(self):
        outer = PCLArray("outer", "int", 1)
        inner = PCLArray("inner", "int", 2)
        outer.items = [inner]
        snap = snapshot_values({"outer": outer})
        inner.set(0, 123)
        assert snap["outer"].items[0].items == [0, 0]

    def test_logged_prelog_values_unaffected_by_mutation(self):
        src = """
shared int m[3];
func int bump() { m[0] = m[0] + 1; return m[0]; }
proc main() {
    m[1] = 5;
    int r = bump();
    print(r);
}
"""
        record = run_program(src, seed=0)
        prelogs = [
            e
            for e in record.logs[0]
            if isinstance(e, Prelog) and e.proc_name == "bump" and "m" in e.values
        ]
        assert prelogs, "expected a bump() prelog snapshotting m"
        snap = prelogs[0].values["m"]
        # The snapshot shows m as it was at call time (m[0] still 0),
        # even though bump mutated it immediately afterwards.
        assert isinstance(snap, PCLArray)
        assert snap.items[0] == 0
        assert snap.items[1] == 5
