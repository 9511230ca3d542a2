"""Race-detection tests: Defs 6.1-6.4 and the two scan algorithms (E7/E9)."""

from repro import compile_program, Machine
from repro.core import (
    READ_WRITE,
    WRITE_WRITE,
    find_races_indexed,
    find_races_naive,
    is_race_free,
    races_involving,
)
from repro.runtime import run_program
from repro.workloads import (
    bank_race,
    bank_safe,
    fig53_program,
    fig61_program,
    pipeline,
    producer_consumer,
)


class TestDetection:
    def test_write_write_race_detected(self):
        record = run_program(bank_race(2, 2), seed=3)
        scan = find_races_indexed(record.history)
        assert not scan.is_race_free
        kinds = {r.kind for r in scan.races}
        assert WRITE_WRITE in kinds

    def test_read_write_race_detected(self):
        record = run_program(fig61_program(), seed=1)
        races = races_involving(record.history, "SV")
        assert races
        assert any(r.kind == READ_WRITE for r in races)

    def test_race_sites_reported(self):
        record = run_program(bank_race(2, 2), seed=3)
        scan = find_races_indexed(record.history)
        race = next(r for r in scan.races if r.variable == "balance")
        assert race.sites_a or race.sites_b

    def test_race_involves(self):
        record = run_program(bank_race(2, 2), seed=3)
        race = find_races_indexed(record.history).races[0]
        assert race.involves(race.pid_a)
        assert not race.involves(99)

    def test_detection_is_interleaving_independent(self):
        """The race is detected even on seeds where it does not manifest
        (the assertion passes): unordered access is a property of the
        parallel dynamic graph, not of the observed values."""
        compiled = compile_program(bank_race(2, 1))
        manifested, detected = 0, 0
        for seed in range(12):
            record = Machine(compiled, seed=seed).run()
            if record.failure is not None:
                manifested += 1
            if not find_races_indexed(record.history).is_race_free:
                detected += 1
        assert detected == 12
        assert manifested < 12  # some schedules get lucky


class TestRaceFreedom:
    def test_semaphore_protected_is_race_free(self):
        for seed in range(5):
            record = run_program(bank_safe(2, 3), seed=seed)
            assert is_race_free(record.history), seed

    def test_message_passing_only_is_race_free(self):
        record = run_program(producer_consumer(6, 2), seed=4)
        assert is_race_free(record.history)

    def test_pipeline_is_race_free(self):
        record = run_program(pipeline(3, 4), seed=2)
        assert is_race_free(record.history)

    def test_fig53_workers_race_free(self):
        # One worker uses P/V around SV; the other never touches SV.
        record = run_program(fig53_program(), seed=1)
        assert is_race_free(record.history)

    def test_sequential_program_trivially_race_free(self):
        record = run_program("proc main() { int a = 1; print(a); }")
        assert is_race_free(record.history)


class TestAlgorithmsAgree:
    def test_naive_and_indexed_find_same_races(self):
        for source, seeds in [
            (bank_race(2, 3), range(6)),
            (bank_safe(2, 2), range(4)),
            (fig61_program(), range(4)),
            (producer_consumer(5, 1), range(3)),
        ]:
            compiled = compile_program(source)
            for seed in seeds:
                record = Machine(compiled, seed=seed).run()
                naive = find_races_naive(record.history)
                indexed = find_races_indexed(record.history)
                key = lambda r: (r.seg_id_a, r.seg_id_b, r.variable, r.kind)
                assert sorted(map(key, naive.races)) == sorted(
                    map(key, indexed.races)
                ), (source[:40], seed)

    def test_indexed_does_less_ordering_work(self):
        record = run_program(bank_safe(3, 3), seed=2)
        naive = find_races_naive(record.history)
        indexed = find_races_indexed(record.history)
        assert indexed.order_checks < naive.order_checks


class TestThreeWayExample:
    def test_section_63_worked_example(self):
        """§6.3: SV written in e1, read in e3 (ordered: no race); adding an
        unordered writer in e2 creates the race."""
        ordered = """
shared int SV;
sem ready = 0;
chan out;
proc writer() { SV = 1; V(ready); }
proc reader() { P(ready); int x = SV; send(out, x); }
proc main() { spawn writer(); spawn reader(); int r = recv(out); join(); }
"""
        record = run_program(ordered, seed=2)
        assert is_race_free(record.history)

        with_interloper = """
shared int SV;
sem ready = 0;
chan out;
proc writer() { SV = 1; V(ready); }
proc interloper() { SV = 2; }
proc reader() { P(ready); int x = SV; send(out, x); }
proc main() { spawn writer(); spawn interloper(); spawn reader(); int r = recv(out); join(); }
"""
        record = run_program(with_interloper, seed=2)
        races = races_involving(record.history, "SV")
        assert races
        kinds = {r.kind for r in races}
        assert WRITE_WRITE in kinds  # writer vs interloper
        assert READ_WRITE in kinds  # interloper vs reader


class TestLazyOrderIndex:
    """The indexed scan builds the order index at its first order test."""

    def _session(self, source):
        from repro import PPDSession

        session = PPDSession(Machine(compile_program(source), seed=0).run())
        session.start()
        return session

    def _count_builds(self, monkeypatch):
        from repro.core.parallel_graph import ParallelDynamicGraph

        builds = []
        original = ParallelDynamicGraph.order_index

        def counted(graph):
            builds.append(graph)
            return original(graph)

        monkeypatch.setattr(ParallelDynamicGraph, "order_index", counted)
        return builds

    def test_spmd_scan_builds_no_index(self, monkeypatch):
        from repro.workloads import ring_allreduce

        session = self._session(ring_allreduce(32, deviant=5))
        builds = self._count_builds(monkeypatch)
        scan = session.races()
        assert builds == []
        assert (scan.pairs_examined, scan.order_checks, scan.pairs_pruned) == (0, 0, 0)
        assert scan.races == []

    def test_scan_with_pairs_builds_it_once(self, monkeypatch):
        # Counters as they stood when every scan built the index on entry.
        session = self._session(bank_race(4, 3))
        builds = self._count_builds(monkeypatch)
        scan = session.races()
        assert len(builds) == 1
        assert (scan.pairs_examined, scan.order_checks, scan.pairs_pruned) == (26, 12, 4)
        assert len(scan.races) == 6
