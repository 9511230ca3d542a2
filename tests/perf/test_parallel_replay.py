"""The parallel replay engine (repro.perf): pool, cache, rebasing.

The load-bearing property is §5.2 determinism carried one step further:
a base-0 replay rebased into a session's uid space must be *byte-
identical* to the replay the session would have produced natively.
Everything else — pooled fan-out, the shared cache, warm rehydration —
leans on that.
"""

import pickle

import pytest

from repro import Machine, PPDSession, compile_program, obs
from repro.core.emulation import EmulationPackage, interval_indexes
from repro.perf import ReplayCache, ReplayPool, record_digest, replay_cache
from repro.runtime.persist import record_from_json, record_to_json
from repro.workloads import fig41_program, fig61_program


@pytest.fixture(scope="module", params=["fig41", "fig61"])
def record(request):
    source = fig41_program() if request.param == "fig41" else fig61_program()
    return Machine(compile_program(source), seed=0, mode="logged").run()


def all_intervals(record):
    return [
        (pid, interval_id)
        for pid, index in sorted(interval_indexes(record).items())
        for interval_id in sorted(index)
    ]


def transcript(result):
    return [event.to_json() for event in result.events]


class TestRebasing:
    def test_rebased_base0_equals_native_replay(self, record):
        """replay(0).rebased(B) == replay(B), field for field."""
        package = EmulationPackage(record)
        for pid, interval_id in all_intervals(record):
            base0 = package.replay(pid, interval_id, uid_base=0)
            for base in (0, 137, 5001):
                native = package.replay(pid, interval_id, uid_base=base)
                rebased = base0.rebased(base)
                assert transcript(rebased) == transcript(native)
                assert rebased.trace_of_sync == native.trace_of_sync
                assert rebased.subgraph_intervals == native.subgraph_intervals
                assert [e.event_uid for e in rebased.externs] == [
                    e.event_uid for e in native.externs
                ]
                assert rebased.final_shared == native.final_shared
                assert rebased.final_locals == native.final_locals
                assert rebased.output == native.output

    def test_rebased_copies_do_not_alias(self, record):
        package = EmulationPackage(record)
        pid, interval_id = all_intervals(record)[0]
        base0 = package.replay(pid, interval_id, uid_base=0)
        rebased = base0.rebased(0)
        assert rebased.events is not base0.events
        if rebased.events:
            assert rebased.events[0] is not base0.events[0]


class TestReplayPool:
    def test_pooled_byte_identical_to_serial_every_interval(self, record):
        """The tentpole property: pooled replay == serial replay, for every
        interval of the Fig 4.1 / Fig 6.1 workloads."""
        package = EmulationPackage(record)
        requests = all_intervals(record)
        with ReplayPool(record, jobs=2) as pool:
            pooled = pool.replay_batch(requests)
        for (pid, interval_id), result in zip(requests, pooled):
            serial = package.replay(pid, interval_id, uid_base=0)
            assert transcript(result) == transcript(serial)
            assert result.trace_of_sync == serial.trace_of_sync
            assert result.final_shared == serial.final_shared

    def test_results_merge_in_request_order(self, record):
        requests = list(reversed(all_intervals(record)))
        with ReplayPool(record, jobs=2) as pool:
            results = pool.replay_batch(requests)
        assert [(r.pid, r.interval_id) for r in results] == requests

    def test_duplicate_requests_execute_once(self, record):
        pid, interval_id = all_intervals(record)[0]
        with ReplayPool(record, jobs=1) as pool:
            results = pool.replay_batch([(pid, interval_id)] * 3)
            assert pool.executed == 1
        assert results[0] is results[1] is results[2]

    def test_jobs_one_stays_inline(self, record):
        with ReplayPool(record, jobs=1) as pool:
            pool.replay_batch(all_intervals(record))
            assert pool.describe()["parallel"] is False

    def test_pool_feeds_attached_cache(self, record):
        cache = ReplayCache()
        requests = all_intervals(record)
        with ReplayPool(record, jobs=2, cache=cache) as pool:
            pool.replay_batch(requests)
            assert cache.stats.misses == len(requests)
            pool.replay_batch(requests)
            assert cache.stats.hits == len(requests)
            assert pool.executed == len(requests)  # second batch all-warm

    def test_record_pickles(self, record):
        blob = pickle.dumps(record)
        assert pickle.loads(blob).total_steps == record.total_steps


class TestReplayCache:
    def test_miss_then_hit(self, record):
        cache = ReplayCache()
        package = EmulationPackage(record)
        pid, interval_id = all_intervals(record)[0]
        assert cache.get(record, pid, interval_id) is None
        result = package.replay(pid, interval_id, uid_base=0)
        cache.put(record, pid, interval_id, result)
        assert cache.get(record, pid, interval_id) is result
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_digest_survives_persist_round_trip(self, record):
        reloaded = record_from_json(record_to_json(record))
        assert record_digest(reloaded) == record_digest(record)

    def test_round_tripped_record_hits_same_entries(self, record):
        """The property rehydration relies on: a reloaded record (different
        object, same content) addresses the same cache entries."""
        cache = ReplayCache()
        package = EmulationPackage(record)
        pid, interval_id = all_intervals(record)[0]
        cache.put(record, pid, interval_id, package.replay(pid, interval_id))
        reloaded = record_from_json(record_to_json(record))
        assert cache.get(reloaded, pid, interval_id) is not None

    def test_lru_eviction_by_event_weight(self, record):
        package = EmulationPackage(record)
        requests = all_intervals(record)
        results = [package.replay(pid, iid, uid_base=0) for pid, iid in requests]
        # Budget for the largest result only: each insert evicts the rest.
        cache = ReplayCache(max_events=max(r.event_count for r in results))
        for (pid, interval_id), result in zip(requests, results):
            cache.put(record, pid, interval_id, result)
        assert len(cache) >= 1
        assert cache.stats.evictions >= len(requests) - len(cache)

    def test_spill_and_reload(self, record, tmp_path):
        package = EmulationPackage(record)
        requests = all_intervals(record)
        results = [package.replay(pid, iid, uid_base=0) for pid, iid in requests]
        cache = ReplayCache(max_events=1, spill_dir=str(tmp_path))
        for (pid, interval_id), result in zip(requests, results):
            cache.put(record, pid, interval_id, result)
        assert cache.stats.spills > 0
        # The evicted entries come back from disk, identical.
        for (pid, interval_id), original in zip(requests, results):
            reloaded = cache.get(record, pid, interval_id)
            assert reloaded is not None
            assert transcript(reloaded) == transcript(original)
        assert cache.stats.spill_hits > 0

    def test_contains_does_not_touch_stats(self, record):
        cache = ReplayCache()
        pid, interval_id = all_intervals(record)[0]
        assert not cache.contains(record, pid, interval_id)
        assert cache.stats.requests == 0


class TestSharedAcrossSessions:
    def test_second_session_start_is_warm(self, record):
        cache = ReplayCache()
        first = PPDSession(record, cache=cache)
        first.start()
        misses = cache.stats.misses
        second = PPDSession(record, cache=cache)
        second.start()
        assert cache.stats.misses == misses  # no new replay executed
        assert cache.stats.hits > 0

    def test_warm_session_graph_identical_to_cold(self, record):
        cold = PPDSession(record, cache=ReplayCache())
        cold.start()
        shared = ReplayCache()
        PPDSession(record, cache=shared).start()  # warm the cache
        warm = PPDSession(record, cache=shared)
        warm.start()
        cold_events = {
            key: transcript(result) for key, result in cold._replayed.items()
        }
        warm_events = {
            key: transcript(result) for key, result in warm._replayed.items()
        }
        assert warm_events == cold_events

    def test_obs_reset_clears_shared_cache(self, record):
        cache = replay_cache()
        PPDSession(record).start()  # default sessions use the shared cache
        assert cache.describe()["entries"] > 0 or cache.stats.requests > 0
        obs.reset()
        assert len(cache) == 0
        assert cache.stats.requests == 0


class TestIntervalIndexMemo:
    def test_index_built_once_per_record(self, record):
        first = EmulationPackage(record)
        second = EmulationPackage(record)
        assert first.indexes is second.indexes
        assert interval_indexes(record) is first.indexes
