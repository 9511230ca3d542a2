"""Integration tests: hooks wired through both debugger phases.

Two contracts matter beyond unit behaviour:

* the counter *names* are stable — BENCH_obs.json diffs and the README
  catalogue depend on them;
* with obs disabled (the default), instrumentation is invisible: no
  metrics accumulate and the execution-phase LogFiles are byte-identical
  to an uninstrumented run.
"""

import pytest

from repro import Machine, PPDSession, compile_program, obs
from repro.workloads import bank_race, buggy_average

#: The counter catalogue: every base name the hooks may emit.  Renaming
#: one is a breaking change for BENCH_obs.json baselines — update the
#: README catalogue and re-baseline deliberately.
STABLE_COUNTER_NAMES = {
    "exec.runs",
    "exec.steps",
    "exec.shared.reads",
    "exec.shared.writes",
    "exec.sync_events",
    "sched.preemptions",
    "sched.context_switches",
    "log.entries",
    "log.bytes",
    "debug.replays",
    "debug.replays.cache_hits",
    "debug.replayed_events",
    "debug.replayed_steps",
    "debug.subgraph_expansions",
    "debug.flowback.queries",
    "debug.flowback.nodes",
    "debug.flowback.seconds",
    "debug.races.scans",
    "debug.races.pairs_examined",
    "debug.races.pairs_pruned",
    "debug.races.order_checks",
    "debug.races.found",
    "analysis.lint.diagnostics",
    "analysis.lint.errors",
    "analysis.effects.programs",
    "analysis.effects.local",
    "analysis.effects.shared",
    "analysis.effects.sync",
    "perf.cache.hits",
    "perf.cache.misses",
    "perf.cache.evictions",
    "perf.cache.spills",
    "perf.cache.spill_hits",
    "perf.cache.entries",
    "perf.cache.events",
    "perf.pool.batches",
    "perf.pool.submitted",
    "perf.pool.executed",
    "perf.pool.chunks",
    "perf.pool.bytes_shipped",
    "perf.pool.fallbacks",
    "perf.pool.seconds",
    "perf.shm.created",
    "perf.shm.attached",
    "perf.shm.unlinked",
    "perf.shm.bytes",
}


@pytest.fixture(scope="module")
def average_compiled():
    return compile_program(buggy_average(5))


def _run_average(compiled):
    return Machine(
        compiled, seed=0, mode="logged", inputs=[10, 20, 30, 40, 50]
    ).run()


def _debug_session(record):
    session = PPDSession(record)
    session.start()
    session.why_value("average")
    return session


class TestEnabledPath:
    def test_counter_names_are_stable(self, average_compiled):
        with obs.capture() as registry:
            record = _run_average(average_compiled)
            _debug_session(record)
            racy = Machine(
                compile_program(bank_race(2, 2)), seed=3, mode="logged"
            ).run()
            racy_session = PPDSession(racy)
            racy_session.start()
            racy_session.races()
        base_names = {name.partition("{")[0] for name in registry.snapshot()}
        # Timer stats expand with suffixes; strip them back to base names.
        base_names = {
            name.rsplit(".", 1)[0]
            if name.endswith((".count", ".total_s", ".mean_s", ".max_s", ".min_s"))
            else name
            for name in base_names
        }
        assert base_names <= STABLE_COUNTER_NAMES
        # The canonical smoke workload exercises every hook family.
        for required in (
            "exec.runs",
            "exec.steps",
            "log.entries",
            "log.bytes",
            "sched.preemptions",
            "debug.replays",
            "debug.flowback.queries",
            "debug.races.scans",
        ):
            assert required in base_names, f"missing {required}"

    def test_counters_match_record_totals(self, average_compiled):
        with obs.capture() as registry:
            record = _run_average(average_compiled)
        assert registry.value("exec.runs") == 1
        assert registry.value("exec.steps") == record.total_steps
        assert registry.value("log.entries") == record.log_entry_count()
        assert registry.value("sched.preemptions") == record.preemptions
        assert (
            registry.value("sched.context_switches") == record.context_switches
        )
        for pid, log in record.logs.items():
            per_pid = sum(
                m.value
                for m in registry.find("log.entries")
                if ("pid", str(pid)) in m.labels
            )
            assert per_pid == len(log)

    def test_per_process_log_bytes_sum_to_total(self, average_compiled):
        with obs.capture() as registry:
            _run_average(average_compiled)
        total = registry.value("log.bytes")
        per_pid = sum(
            m.value for m in registry.find("log.bytes") if m.labels
        )
        assert total == per_pid > 0

    def test_trace_records_run_event(self, average_compiled):
        with obs.capture():
            _run_average(average_compiled)
            runs = obs.tracer().by_name("exec.run")
        assert len(runs) == 1
        assert runs[0].attrs["steps"] > 0

    def test_replay_cache_hit_counter(self, average_compiled):
        with obs.capture() as registry:
            record = _run_average(average_compiled)
            session = PPDSession(record)
            session.start()
            first = session.expand_interval(0, 1)
            again = session.expand_interval(0, 1)
        assert first is again
        assert registry.value("debug.replays.cache_hits") >= 1


class TestDisabledPath:
    def test_disabled_is_the_default(self):
        assert not obs.is_enabled()

    def test_no_metrics_accumulate_when_disabled(self, average_compiled):
        obs.reset()
        record = _run_average(average_compiled)
        _debug_session(record)
        assert len(obs.registry()) == 0
        assert len(obs.tracer()) == 0

    def test_log_contents_identical_with_and_without_obs(self, average_compiled):
        """Observing must never perturb the §3.2 log (the E1 quantity)."""
        baseline = _run_average(average_compiled)
        with obs.capture():
            observed = _run_average(average_compiled)
        assert sorted(baseline.logs) == sorted(observed.logs)
        for pid in baseline.logs:
            assert (
                baseline.logs[pid].to_jsonl() == observed.logs[pid].to_jsonl()
            )

    def test_record_keeps_scheduler_totals_even_when_disabled(
        self, average_compiled
    ):
        record = _run_average(average_compiled)
        assert record.preemptions >= 0
        assert record.context_switches >= len(record.process_names) - 1

    def test_report_totals_match_record_without_obs(self):
        record = Machine(compile_program(bank_race(3, 4)), seed=2, mode="logged").run()
        log = obs.build_report(record)["log"]
        assert len(log["per_process"]) > 1
        assert log["total_entries"] == record.log_entry_count()
        assert log["total_bytes"] == record.log_bytes()
