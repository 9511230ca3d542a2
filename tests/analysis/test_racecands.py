"""Static race-candidate analysis tests (repro.analysis.racecands).

The contract under test: the candidate set over-approximates the dynamic
races, so pruning the race scans with it never changes their output —
only their cost.
"""

import pytest

from repro import Machine, compile_program
from repro.analysis.racecands import (
    analyze_candidates,
    analyze_concurrency,
    analyze_locksets,
    candidates_from_compiled,
    collect_access_sites,
)
from repro.core.races import find_races_indexed, find_races_naive
from repro.lang import parse
from repro.workloads import bank_race, bank_safe, producer_consumer


def compiled(source):
    return compile_program(source)


def candidates_of(source):
    return candidates_from_compiled(compile_program(source))


RACY = """
shared int total;

proc worker(int k) {
    total = total + k;
}

proc main() {
    spawn worker(1);
    spawn worker(2);
}
"""

GUARDED = """
shared int total;
sem m = 1;

proc worker(int k) {
    P(m);
    total = total + k;
    V(m);
}

proc main() {
    spawn worker(1);
    spawn worker(2);
}
"""


class TestAccessSites:
    def test_sites_cover_reads_and_writes(self):
        program = parse(RACY)
        from repro.analysis import check_program

        sites = collect_access_sites(program, check_program(program))
        writes = [s for s in sites if s.write]
        reads = [s for s in sites if not s.write]
        assert {s.var for s in writes} == {"total"}
        assert {s.var for s in reads} == {"total"}
        # Write sites carry the statement node id, read sites the
        # expression node id — they must differ for the same access.
        assert {s.node_id for s in writes}.isdisjoint({s.node_id for s in reads})

    def test_local_shadowing_excluded(self):
        source = """
shared int x;
proc helper() { int x = 1; x = x + 1; }
proc main() { x = 2; spawn helper(); }
"""
        program = parse(source)
        from repro.analysis import check_program

        sites = collect_access_sites(program, check_program(program))
        assert all(s.proc == "main" for s in sites)


class TestConcurrency:
    def _info(self, source):
        program = parse(source)
        from repro.analysis import build_call_graph

        return analyze_concurrency(program, build_call_graph(program))

    def test_distinct_roots_are_concurrent(self):
        info = self._info(RACY)
        assert info.concurrent_procs("worker", "main")
        assert info.concurrent_procs("worker", "worker")  # spawned twice

    def test_single_instance_root_not_self_concurrent(self):
        info = self._info("proc helper() { int t = 0; } proc main() { spawn helper(); }")
        assert not info.concurrent_procs("main", "main")
        assert not info.concurrent_procs("helper", "helper")
        assert info.concurrent_procs("helper", "main")

    def test_spawn_in_loop_is_multi_instance(self):
        info = self._info(
            """
proc helper() { int t = 0; }
proc main() { int i = 0; while (i < 3) { spawn helper(); i = i + 1; } }
"""
        )
        assert "helper" in info.multi_instance_roots
        assert info.concurrent_procs("helper", "helper")

    def test_spawn_under_multi_instance_spawner_propagates(self):
        info = self._info(
            """
proc leaf() { int t = 0; }
proc mid() { spawn leaf(); }
proc main() { spawn mid(); spawn mid(); }
"""
        )
        assert "leaf" in info.multi_instance_roots


class TestLocksets:
    def _locksets(self, source):
        program = parse(source)
        from repro.analysis import build_call_graph, build_cfgs, check_program

        table = check_program(program)
        graph = build_call_graph(program)
        info = analyze_concurrency(program, graph)
        return analyze_locksets(
            program, table, graph, build_cfgs(program), set(info.procs_under_root)
        )

    def test_binary_semaphore_is_a_token(self):
        info = self._locksets(GUARDED)
        assert "m" in info.tokens

    def test_counting_semaphore_is_not_a_token(self):
        info = self._locksets(GUARDED.replace("sem m = 1;", "sem m = 2;"))
        assert "m" not in info.tokens

    def test_undisciplined_semaphore_demoted(self):
        # A V(m) without a preceding P(m) breaks mutual exclusion: the
        # token must not be trusted.
        source = """
shared int total;
sem m = 1;
proc worker() { P(m); total = 1; V(m); }
proc main() { V(m); spawn worker(); spawn worker(); }
"""
        info = self._locksets(source)
        assert "m" not in info.tokens

    def test_interprocedural_entry_lockset(self):
        source = """
shared int total;
sem m = 1;
func int bump() { total = total + 1; return total; }
proc worker() { int r = 0; P(m); r = bump(); V(m); }
proc main() { spawn worker(); spawn worker(); }
"""
        info = self._locksets(source)
        assert info.entry["bump"] == frozenset({"m"})


class TestCandidates:
    def test_unguarded_shared_write_is_candidate(self):
        cands = candidates_of(RACY)
        assert "total" in cands.variables
        assert cands.pair_count("total") >= 1

    def test_semaphore_guard_excludes(self):
        cands = candidates_of(GUARDED)
        assert "total" not in cands.variables

    def test_lock_guard_excludes(self):
        source = GUARDED.replace("sem m = 1;", "lockvar m;")
        source = source.replace("P(m);", "lock(m);").replace("V(m);", "unlock(m);")
        cands = candidates_of(source)
        assert "total" not in cands.variables

    def test_same_site_pairs_with_itself_when_multi_instance(self):
        # Two instances of worker executing the *same* write site race.
        source = """
shared int total;
proc worker() { total = 1; }
proc main() { spawn worker(); spawn worker(); }
"""
        cands = candidates_of(source)
        assert "total" in cands.variables
        assert any(
            p.site_a.node_id == p.site_b.node_id for p in cands.pairs
        )

    def test_sequential_program_has_no_candidates(self):
        cands = candidates_of("shared int x; proc main() { x = 1; x = x + 1; }")
        assert not cands.variables

    def test_explain_names_sites(self):
        bundle = compiled(RACY)
        cands = candidates_from_compiled(bundle)
        text = cands.explain("total", bundle.database)
        assert "candidate site pair" in text
        assert "worker" in text
        clean = cands.explain("nonexistent", bundle.database)
        assert "not a race candidate" in clean


class TestMayConflict:
    class FakeSegment:
        def __init__(self, reads=(), writes=()):
            self.read_sites = list(reads)
            self.write_sites = list(writes)

    def test_non_candidate_variable_never_conflicts(self):
        cands = candidates_of(GUARDED)
        seg = self.FakeSegment(writes=[(999, "total")])
        assert not cands.may_conflict(seg, seg, "total")

    def test_truncated_segment_is_conservative(self):
        cands = candidates_of(RACY)
        full = self.FakeSegment(writes=[(i, "other") for i in range(cands.site_cap)])
        other = self.FakeSegment()
        assert cands.may_conflict(full, other, "total")

    def test_unknown_site_id_is_conservative(self):
        cands = candidates_of(RACY)
        seg = self.FakeSegment(writes=[(10**6, "total")])
        assert cands.may_conflict(seg, self.FakeSegment(), "total")


class TestPrunedScansIdentical:
    """The acceptance bar: pruning never changes a scan's output."""

    @pytest.mark.parametrize(
        "source,seed",
        [
            (bank_race(2, 2), 3),
            (bank_race(3, 3), 5),
            (bank_safe(2, 2), 3),
            (bank_safe(3, 3), 7),
            (producer_consumer(4, 1), 2),
            (RACY, 1),
            (GUARDED, 1),
        ],
    )
    def test_identical_results(self, source, seed):
        bundle = compiled(source)
        record = Machine(bundle, seed=seed, mode="logged").run()
        cands = candidates_from_compiled(bundle)
        for scan in (find_races_naive, find_races_indexed):
            plain = scan(record.history)
            pruned = scan(record.history, candidates=cands)
            assert [
                (r.variable, r.kind, r.seg_id_a, r.seg_id_b, r.pid_a, r.pid_b)
                for r in plain.races
            ] == [
                (r.variable, r.kind, r.seg_id_a, r.seg_id_b, r.pid_a, r.pid_b)
                for r in pruned.races
            ]
            assert pruned.pairs_examined == plain.pairs_examined

    def test_safe_workload_actually_prunes(self):
        bundle = compiled(bank_safe(3, 3))
        record = Machine(bundle, seed=3, mode="logged").run()
        cands = candidates_from_compiled(bundle)
        pruned = find_races_indexed(record.history, candidates=cands)
        assert pruned.pairs_pruned > 0
        assert pruned.is_race_free

    def test_session_races_use_candidates(self):
        from repro import PPDSession

        bundle = compiled(bank_safe(2, 2))
        record = Machine(bundle, seed=3, mode="logged").run()
        session = PPDSession(record)
        session.start()
        scan = session.races()
        assert scan.is_race_free
        assert scan.pairs_pruned > 0
        assert session.race_candidates() is session.race_candidates()  # memoized


class TestWorkSaved:
    """The analysis builds only what its answer reads."""

    #: Reaches every step: worker sites guarded by a token (the lockset
    #: step), a main read (the join step) and a helper called while the
    #: token is held (interprocedural entry locksets).
    EVERY_STEP = """
shared int total;
sem m = 1;
func int bump() { total = total + 1; return total; }
proc worker() { int r = 0; P(m); r = bump(); V(m); }
proc main() { spawn worker(); spawn worker(); join(); print(total); }
"""

    def _count(self, monkeypatch, name):
        from repro.analysis import racecands

        calls = []
        original = getattr(racecands, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(racecands, name, counted)
        return calls

    def test_each_procedure_walked_at_most_once(self, monkeypatch):
        from repro.lang import ast

        bundle = compiled(self.EVERY_STEP)
        walks = self._count(monkeypatch, "_walk_procedure")
        quiescence = self._count(monkeypatch, "_main_quiescent_nodes")
        generic = []
        for name in ("walk", "walk_statements"):
            original = getattr(ast, name)
            monkeypatch.setattr(
                ast, name, lambda node, _f=original: generic.append(node) or _f(node)
            )
        cands = analyze_candidates(
            bundle.program, bundle.table, bundle.call_graph, bundle.summaries, bundle.cfgs
        )
        assert sorted(args[0].name for args in walks) == sorted(bundle.program.proc_names)
        assert generic == []
        # Every later step ran, reading only what the walk recorded.
        assert cands.facts.locksets().entry["bump"] == frozenset({"m"})
        assert len(quiescence) == 1
        assert len(walks) == len(bundle.program.procs)
        assert "total" not in cands.variables

    def test_message_passing_program_runs_no_later_step(self, monkeypatch):
        from repro.workloads import ring_allreduce

        bundle = compiled(ring_allreduce(32))
        counts = {
            name: self._count(monkeypatch, name)
            for name in ("_walk_procedure", "_concurrency", "_locksets", "_main_quiescent_nodes")
        }

        def no_effects():
            raise AssertionError("an empty candidate set asked for the effect analysis")

        monkeypatch.setattr(bundle, "vm_code", no_effects)
        cands = candidates_from_compiled(bundle)
        assert not cands.pairs and not cands.known_sites
        assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(counts, 0)

    def test_lint_computes_locksets_at_most_once(self, monkeypatch):
        from repro import PPDSession
        from repro.analysis.lint import lint_compiled
        from repro.workloads import ring_allreduce

        locksets = self._count(monkeypatch, "_locksets_for_tokens")
        lint_compiled(compiled(ring_allreduce(32)))
        assert locksets == []
        lint_compiled(compiled(bank_safe(2, 2)))
        assert len(locksets) == 1

        # A session's lint reads the locksets its race candidates computed.
        bundle = compiled(bank_safe(2, 2))
        session = PPDSession(Machine(bundle, seed=3, mode="logged").run())
        session.start()
        session.races()
        session.lint()
        assert len(locksets) == 2

    def test_join_quiescence_ends_at_a_call_that_spawns(self):
        # main's write follows a call whose callee spawns the writer, so
        # no join orders the two writes.
        source = """
shared int x;
proc w() { x = 1; }
func int h() { spawn w(); return 0; }
proc main() { int r = h(); x = 2; join(); }
"""
        assert "x" in candidates_of(source).variables
        joined_first = source.replace("x = 2; join();", "join(); x = 2;")
        assert "x" not in candidates_of(joined_first).variables
