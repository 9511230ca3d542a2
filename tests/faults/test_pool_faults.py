"""Self-healing replay pool: crashed and hung workers are detected,
respawned within budget, and degraded to inline serial replay past it —
with byte-identical results every time (replay is deterministic)."""

import multiprocessing
import threading

import pytest

from repro import Machine, compile_program, faults, obs
from repro.core.emulation import interval_indexes
from repro.obs.report import deterministic_counters
from repro.perf import ReplayCache, ReplayPool, leaked_segments
from repro.workloads import fig61_program


@pytest.fixture(scope="module")
def record():
    return Machine(compile_program(fig61_program()), seed=1, mode="logged").run()


def all_intervals(record):
    return [
        (pid, interval_id)
        for pid, index in sorted(interval_indexes(record).items())
        for interval_id in sorted(index)
    ]


def surfaces(results):
    return [
        (
            [event.to_json() for event in result.events],
            sorted(result.trace_of_sync.items()),
            sorted(result.final_shared.items()),
        )
        for result in results
    ]


@pytest.fixture(scope="module")
def expected(record):
    with ReplayPool(record, jobs=1, cache=ReplayCache()) as pool:
        return surfaces(pool.replay_batch(all_intervals(record)))


def make_pool(record, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("cache", ReplayCache())
    kwargs.setdefault("retry_backoff_s", 0.01)
    return ReplayPool(record, **kwargs)


class TestWorkerCrash:
    def test_crash_respawns_and_results_identical(self, record, expected):
        with faults.inject("pool.crash:n=1") as plan:
            with make_pool(record) as pool:
                results = pool.replay_batch(all_intervals(record))
                assert plan.total_fired() == 1
                assert pool.respawns == 1
                assert pool.fallbacks == 0
        assert surfaces(results) == expected

    def test_crash_counts_recovery_when_obs_enabled(self, record):
        with obs.capture() as registry:
            with faults.inject("pool.crash:n=1"):
                with make_pool(record) as pool:
                    pool.replay_batch(all_intervals(record))
            counters = deterministic_counters(registry)
        assert counters.get("faults.injected{point=pool.crash}") == 1
        assert counters.get("recovery.pool.respawns") == 1
        assert counters.get("recovery.actions") >= 1


class TestWorkerHang:
    def test_watchdog_detects_hang_and_results_identical(self, record, expected):
        with faults.inject("pool.hang:n=1,s=2.0") as plan:
            with make_pool(record, worker_timeout_s=0.2) as pool:
                results = pool.replay_batch(all_intervals(record))
                assert plan.total_fired() == 1
                assert pool.respawns == 1
        assert surfaces(results) == expected

    def test_no_worker_or_manager_thread_outlives_its_executor(self, record, expected):
        """A respawn stops the hung executor before it forks again, and
        closing the pool stops the new one: a worker left running would
        hold interpreter exit, which joins every live worker, and a dead
        executor's manager thread could hold its lock while a respawn
        forks."""
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with faults.inject("pool.hang:n=1,s=30.0"):
            with make_pool(record, worker_timeout_s=0.2) as pool:
                results = pool.replay_batch(all_intervals(record))
                assert pool.respawns == 1
                workers = set(multiprocessing.active_children()) - children
                assert len(workers) == pool.jobs  # the hung one is gone
        assert set(multiprocessing.active_children()) - children == set()
        assert set(threading.enumerate()) - threads == set()
        assert surfaces(results) == expected


class TestBoundedRespawn:
    def test_exhausted_budget_falls_back_inline(self, record, expected):
        """Workers that crash on every attempt: the pool retries
        ``max_respawns`` times, then degrades to inline serial replay —
        cause-labelled, never silent, still byte-identical."""
        with obs.capture() as registry:
            with faults.inject("pool.crash:n=100"):
                with make_pool(record, max_respawns=1) as pool:
                    results = pool.replay_batch(all_intervals(record))
                    assert pool.respawns == 1
                    assert pool.fallbacks == 1
                    assert pool.fallback_causes == {"worker-crash": 1}
                    assert pool.last_fallback_cause == "worker-crash"
            counters = deterministic_counters(registry)
        assert surfaces(results) == expected
        assert counters.get("perf.pool.fallbacks") == 1
        assert counters.get("perf.pool.fallbacks{cause=worker-crash}") == 1

    def test_broken_pool_stays_inline_for_later_batches(self, record, expected):
        with make_pool(record, max_respawns=0, cache=None) as pool:
            with faults.inject("pool.crash:n=100"):
                pool.replay_batch(all_intervals(record))
                assert pool.fallbacks == 1
            # Injection is over, but the pool already exhausted its
            # budget: later batches go straight to inline replay.
            results = pool.replay_batch(all_intervals(record))
            assert surfaces(results) == expected
            assert pool.fallback_causes.get("pool-start-failed") == 1
            assert pool.describe()["parallel"] is False

    def test_describe_surfaces_fallback_causes(self, record):
        with faults.inject("pool.crash:n=100"):
            with make_pool(record, max_respawns=0) as pool:
                pool.replay_batch(all_intervals(record))
                info = pool.describe()
        assert info["fallback_causes"] == {"worker-crash": 1}
        assert info["last_fallback_cause"] == "worker-crash"
        assert info["respawns"] == 0


class TestNoFaultPath:
    def test_clean_run_has_no_respawns_or_fallbacks(self, record, expected):
        with make_pool(record) as pool:
            results = pool.replay_batch(all_intervals(record))
            assert pool.respawns == 0
            assert pool.fallbacks == 0
        assert surfaces(results) == expected


class TestShmUnderFaults:
    """The shared-memory record segment across worker-killing faults: a
    respawned pool re-attaches the *same* segment (the record is pickled
    exactly once per pool lifetime), and every exit path — clean close,
    budget exhaustion, mid-fault teardown — unlinks it."""

    def test_crash_respawn_reuses_segment(self, record, expected):
        before = leaked_segments()
        with faults.inject("pool.crash:n=1"):
            with make_pool(record) as pool:
                first_batch = pool.replay_batch(all_intervals(record))
                assert pool.respawns == 1
                segment = pool._segment
                assert segment is not None and not segment.closed
                # The record crossed to workers zero times by value: only
                # the ~30-byte segment name shipped, once per worker.
                assert pool.bytes_shipped < 1024
                results = pool.replay_batch(all_intervals(record))
                assert pool._segment is segment  # respawn re-attached, not re-pickled
        assert surfaces(first_batch) == expected
        assert surfaces(results) == expected
        assert leaked_segments() == before

    def test_hang_respawn_reuses_segment(self, record, expected):
        before = leaked_segments()
        with faults.inject("pool.hang:n=1,s=2.0"):
            with make_pool(record, worker_timeout_s=0.2) as pool:
                results = pool.replay_batch(all_intervals(record))
                assert pool.respawns == 1
                assert pool._segment is not None
        assert surfaces(results) == expected
        assert leaked_segments() == before

    def test_budget_exhaustion_releases_segment(self, record, expected):
        """Degrading to inline replay must not strand the segment until
        close(): a permanently-broken pool has no workers to serve."""
        before = leaked_segments()
        with faults.inject("pool.crash:n=100"):
            with make_pool(record, max_respawns=1) as pool:
                results = pool.replay_batch(all_intervals(record))
                assert pool.fallbacks == 1
                assert leaked_segments() == before  # released on breakage
        assert surfaces(results) == expected
        assert leaked_segments() == before

    def test_vm_engine_identical_under_crash(self, record, expected):
        with faults.inject("pool.crash:n=1"):
            with make_pool(record) as pool:
                results = pool.replay_batch(all_intervals(record))
                assert pool.respawns == 1
        assert surfaces(results) == expected
        assert leaked_segments() == []

    def test_no_dev_shm_entries_after_every_fault_class(self, record):
        """The chaos-suite invariant, in miniature: run each worker-
        killing fault class back to back and end with /dev/shm clean."""
        for spec, kwargs in [
            ("pool.crash:n=1", {}),
            ("pool.hang:n=1,s=2.0", {"worker_timeout_s": 0.2}),
            ("pool.crash:n=100", {"max_respawns": 1}),
        ]:
            with faults.inject(spec):
                with make_pool(record, **kwargs) as pool:
                    pool.replay_batch(all_intervals(record))
            assert leaked_segments() == [], f"leak after {spec}"
