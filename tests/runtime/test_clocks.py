"""Vector clock properties — the O(1) happened-before test must agree with
explicit reachability over the synchronization graph.

Clocks are derived by the history (:meth:`SyncHistory.clocks`) from
program order and the sync edges; no run records one.
"""

import json
import os
import pickle
import sys
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_program, Machine
from repro.runtime import VectorClock, happened_before_or_equal
from repro.runtime.logging import SyncLog
from repro.runtime.persist import load_record, record_to_json
from repro.workloads import bank_safe, fig61_program, pipeline
from tests.test_fuzz_parallel import parallel_programs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
FIXTURES = Path(__file__).with_name("fixtures")
THREADS = (os.cpu_count() or 1) + 2


class TestVectorClockBasics:
    def test_tick_increments_own_component(self):
        clock = VectorClock()
        clock.tick(3)
        clock.tick(3)
        assert clock.get(3) == 2
        assert clock.get(0) == 0

    def test_merge_takes_componentwise_max(self):
        a = VectorClock({0: 3, 1: 1})
        b = VectorClock({0: 2, 1: 5, 2: 1})
        a.merge(b)
        assert a.counts == {0: 3, 1: 5, 2: 1}

    def test_copy_is_independent(self):
        a = VectorClock({0: 1})
        b = a.copy()
        b.tick(0)
        assert a.get(0) == 1

    def test_leq(self):
        assert VectorClock({0: 1}).leq(VectorClock({0: 2, 1: 1}))
        assert not VectorClock({0: 2}).leq(VectorClock({0: 1}))


@st.composite
def clock_pairs(draw):
    pids = range(4)
    counts_a = {p: draw(st.integers(0, 5)) for p in pids}
    counts_b = {p: draw(st.integers(0, 5)) for p in pids}
    return VectorClock(counts_a), VectorClock(counts_b)


@given(clock_pairs())
@settings(max_examples=200, deadline=None)
def test_leq_is_partial_order(pair):
    a, b = pair
    assert a.leq(a)
    if a.leq(b) and b.leq(a):
        for p in set(a.counts) | set(b.counts):
            assert a.get(p) == b.get(p)


def _reachability(history):
    """Explicit transitive closure over program order + sync edges."""
    succ = {uid: set() for uid in history.nodes}
    for uids in history.per_process.values():
        for first, second in zip(uids, uids[1:]):
            succ[first].add(second)
    for edge in history.edges:
        succ[edge.src_uid].add(edge.dst_uid)

    reach = {}
    order = sorted(history.nodes, key=lambda u: history.nodes[u].timestamp, reverse=True)
    for uid in order:
        closure = {uid}
        for nxt in succ[uid]:
            closure |= reach.get(nxt, {nxt})
        reach[uid] = closure
    return reach


def assert_clocks_match_reachability(record):
    history = record.history
    reach = _reachability(history)
    clocks = history.clocks()
    nodes = list(history.nodes.values())
    for a in nodes:
        for b in nodes:
            expected = b.uid in reach[a.uid]
            actual = happened_before_or_equal(clocks[a.uid], a.pid, clocks[b.uid])
            assert actual == expected, (a, b)
            assert history.node_reaches(a.uid, b.uid) == expected, (a, b)


class TestClocksAgainstExplicitReachability:
    def test_fig61(self):
        record = Machine(compile_program(fig61_program()), seed=1).run()
        assert_clocks_match_reachability(record)

    def test_bank_safe_multiple_seeds(self):
        compiled = compile_program(bank_safe(2, 2))
        for seed in range(5):
            record = Machine(compiled, seed=seed).run()
            assert_clocks_match_reachability(record)

    def test_pipeline(self):
        record = Machine(compile_program(pipeline(2, 3)), seed=3).run()
        assert_clocks_match_reachability(record)

    def test_every_example(self):
        for path in sorted(EXAMPLES.glob("*.pcl")):
            compiled = compile_program(path.read_text())
            for seed in range(2):
                for mode in ("logged", "plain"):
                    record = Machine(compiled, seed=seed, mode=mode).run()
                    assert_clocks_match_reachability(record)


@given(parallel_programs(), st.integers(0, 25))
@settings(max_examples=30, deadline=None)
def test_clocks_match_reachability_on_fuzzed_programs(case, seed):
    source, _ = case
    record = Machine(compile_program(source), seed=seed).run()
    assert_clocks_match_reachability(record)


class TestDerivedClocks:
    """The history derives every clock on the first ordering query."""

    def test_fixture_clocks_equal_the_persisted_ones(self):
        """Each format-1 fixture persisted the clocks a run computed;
        deriving them from its edges gives the same clocks."""
        fixtures = sorted(FIXTURES.glob("*.v1.ppd.json"))
        assert fixtures
        for path in fixtures:
            body = json.loads(path.read_text())
            clocks = load_record(str(path), quarantine=False).history.clocks()
            for node in body["history"]["nodes"]:
                persisted = {int(k): v for k, v in node["clock"].items()}
                assert clocks[node["uid"]].counts == persisted, (path.name, node)

    def test_no_clock_is_stored_or_derived_by_a_run(self):
        record = Machine(compile_program(fig61_program()), seed=1).run()
        node = next(iter(record.history.nodes.values()))
        assert not hasattr(node, "clock")
        assert record.history._derived is None

    def test_pickles_carry_no_derived_clock(self):
        """The replay pool pickles the record for its workers, which never
        ask an ordering question: a query before shipping must not make
        the pickle bigger, and the far side derives the same clocks."""
        record = Machine(compile_program(bank_safe(3, 4)), seed=2).run()
        before = len(pickle.dumps(record))
        clocks = record.history.clocks()
        shipped = pickle.dumps(record)
        assert len(shipped) == before
        assert record.history._derived is not None  # the sender keeps its own
        history = pickle.loads(shipped).history
        assert history._derived is None
        assert {uid: c.counts for uid, c in history.clocks().items()} == {
            uid: c.counts for uid, c in clocks.items()
        }

    def test_adding_a_node_after_a_query_derives_again(self):
        history = Machine(compile_program(fig61_program()), seed=1).run().history
        first = history.clocks()
        assert history.clocks() is first  # memoised
        last_uid = max(history.nodes)
        last = history.nodes[last_uid]
        history.add_node(
            SyncLog(
                timestamp=last.timestamp + 1,
                pid=last.pid,
                uid=last_uid + 1,
                op="V",
                obj="s",
                sync_index=last.sync_index + 1,
            )
        )
        second = history.clocks()
        assert second is not first
        expected = dict(first[last_uid].counts)
        expected[last.pid] += 1
        assert second[last_uid + 1].counts == expected

    def test_adding_an_edge_after_a_query_derives_again(self):
        history = Machine(compile_program(bank_safe(2, 2)), seed=1).run().history
        before = history.clocks()
        src, dst = next(
            (a.uid, b.uid)
            for a in history.nodes.values()
            for b in history.nodes.values()
            if a.pid != b.pid and a.uid < b.uid and not history.node_reaches(a.uid, b.uid)
        )
        history.add_edge(src, dst, "sem")
        assert history.clocks() is not before
        assert history.node_reaches(src, dst)

    def test_threads_querying_a_fresh_load_agree(self, tmp_path):
        """Threads (more than the cores) race on the first ordering query of
        a freshly loaded record: each gets every answer one thread gets."""
        record = Machine(compile_program(bank_safe(3, 4)), seed=2).run()
        path = tmp_path / "run.ppd.json"
        path.write_text(record_to_json(record))
        uids = sorted(record.history.nodes)
        pairs = [(a, b) for a in uids for b in uids]
        expected = [record.history.node_reaches(a, b) for a, b in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                history = load_record(str(path)).history
                barrier = threading.Barrier(THREADS, timeout=30)
                answers: list = [None] * THREADS

                def ask(slot: int) -> None:
                    barrier.wait()
                    answers[slot] = [history.node_reaches(a, b) for a, b in pairs]

                threads = [
                    threading.Thread(target=ask, args=(slot,)) for slot in range(THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert answers == [expected] * THREADS
        finally:
            sys.setswitchinterval(interval)
