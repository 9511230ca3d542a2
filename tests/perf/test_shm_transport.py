"""The zero-copy replay transport: shared-memory record segments, the
compact wire codec, cost-balanced chunking, and the adaptive policy.

The load-bearing invariants:

* the segment lifecycle never leaks — ``/dev/shm`` ends every test
  exactly as it started (close, context exit, finalizer, pool teardown);
* ``result_from_wire(result_to_wire(r)) == r`` field-for-field, for
  every interval of the reference workloads — the codec is what keeps
  pooled results byte-identical to serial;
* shm pools ship segment *names*, not record bytes.
"""

import contextlib
import gc
import pickle

import pytest

from repro import Machine, compile_program, obs
from repro.core.emulation import EmulationPackage, interval_indexes
from repro.perf import ReplayPool, default_jobs, leaked_segments
from repro.perf.pool import _COLD_STEPS
from repro.perf.shm import RecordSegment, load_pickled
from repro.perf.wire import result_from_wire, result_to_wire
from repro.workloads import fig41_program, fig61_program

from tests.oracle import oracle

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


class TestRecordSegment:
    def test_round_trip_and_unlink(self):
        payload = pickle.dumps({"answer": 42, "blob": list(range(1000))})
        segment = RecordSegment(payload)
        assert segment.name in leaked_segments()
        assert load_pickled(segment.name) == {"answer": 42, "blob": list(range(1000))}
        segment.close()
        assert segment.closed
        assert segment.name not in leaked_segments()

    def test_close_is_idempotent(self):
        segment = RecordSegment(b"x" * 64)
        segment.close()
        segment.close()
        assert segment.name not in leaked_segments()

    def test_context_manager_unlinks(self):
        with RecordSegment(pickle.dumps("payload")) as segment:
            name = segment.name
            assert load_pickled(name) == "payload"
        assert name not in leaked_segments()

    def test_finalizer_unlinks_dropped_segments(self):
        """A segment whose owner forgets close() must still not leak."""
        segment = RecordSegment(b"y" * 128)
        name = segment.name
        del segment
        gc.collect()
        assert name not in leaked_segments()

    def test_worker_attach_is_untracked(self):
        """Attaching (worker side) then closing must not unlink the
        segment out from under the owner — only the owner unlinks."""
        segment = RecordSegment(pickle.dumps([1, 2, 3]))
        assert load_pickled(segment.name) == [1, 2, 3]  # attach + close inside
        assert segment.name in leaked_segments()  # still owned, still there
        segment.close()
        assert segment.name not in leaked_segments()

    def test_record_round_trips_through_segment(self, record):
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        with RecordSegment(payload) as segment:
            loaded = load_pickled(segment.name)
        assert loaded.total_steps == record.total_steps
        assert loaded.process_names == record.process_names


class TestWireCodec:
    def test_round_trip_every_interval(self, record):
        package = EmulationPackage(record)
        for pid, interval_id in all_intervals(record):
            result = package.replay(pid, interval_id, uid_base=0)
            decoded = result_from_wire(result_to_wire(result))
            assert decoded == result  # dataclass eq: every field
            assert transcript(decoded) == transcript(result)

    def test_round_trip_survives_pickle(self, record):
        """The wire tuple is what actually crosses the worker pipe."""
        package = EmulationPackage(record)
        pid, interval_id = all_intervals(record)[0]
        result = package.replay(pid, interval_id, uid_base=0)
        wire = pickle.loads(pickle.dumps(result_to_wire(result)))
        assert result_from_wire(wire) == result

    def test_decoded_result_rebases_identically(self, record):
        package = EmulationPackage(record)
        for pid, interval_id in all_intervals(record):
            result = package.replay(pid, interval_id, uid_base=0)
            decoded = result_from_wire(result_to_wire(result))
            assert transcript(decoded.rebased(137)) == transcript(result.rebased(137))


class TestShmPool:
    @pytest.mark.parametrize("engine", ["interp", "vm"])
    def test_pooled_byte_identical_over_shm(self, record, engine):
        """Pooled replay over shm equals serial replay on the VM and on the
        reference tree walker (``interp``, :mod:`tests.oracle`)."""
        requests = all_intervals(record)
        before = leaked_segments()
        with ReplayPool(record, jobs=2) as pool:
            pooled = pool.replay_batch(requests)
        package = EmulationPackage(record)
        with oracle() if engine == "interp" else contextlib.nullcontext():
            serial = [package.replay(pid, iid, uid_base=0) for pid, iid in requests]
        for result, expected in zip(pooled, serial):
            assert transcript(result) == transcript(expected)
            assert result.trace_of_sync == expected.trace_of_sync
            assert result.final_shared == expected.final_shared
        assert leaked_segments() == before

    def test_shm_ships_names_not_record_bytes(self, record):
        blob_size = len(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        with ReplayPool(record, jobs=2) as pool:
            pool.replay_batch(all_intervals(record))
            info = pool.describe()
        assert 0 < info["bytes_shipped"] < blob_size
        assert info["bytes_shipped"] < 1024  # a couple of segment names

    def test_chunks_cover_batch_and_respect_jobs(self, record):
        requests = all_intervals(record)
        with ReplayPool(record, jobs=2) as pool:
            pool.replay_batch(requests)
            info = pool.describe()
        assert 1 <= info["chunks"] <= min(len(requests), pool.jobs * 2)

    def test_pool_close_unlinks_segment(self, record):
        before = leaked_segments()
        pool = ReplayPool(record, jobs=2)
        pool.replay_batch(all_intervals(record))
        assert len(leaked_segments()) == len(before) + 1
        pool.close()
        assert leaked_segments() == before

    def test_segment_failure_degrades_inline(self, record, monkeypatch):
        """A segment that cannot be created sends the pool inline, counted
        once as a start failure; later batches stay inline without
        retrying the segment."""
        import repro.perf.shm as shm_module

        attempts = []

        def no_segment(payload):
            attempts.append(len(payload))
            raise OSError("no shared memory")

        monkeypatch.setattr(shm_module, "RecordSegment", no_segment)
        requests = all_intervals(record)
        package = EmulationPackage(record)
        serial = [package.replay(pid, iid, uid_base=0) for pid, iid in requests]
        before = leaked_segments()
        with ReplayPool(record, jobs=2) as pool:
            first = pool.replay_batch(requests)
            info = pool.describe()
            assert info["fallback_causes"] == {"pool-start-failed": 1}
            assert info["parallel"] is False
            second = pool.replay_batch(requests)
            assert pool.describe()["parallel"] is False
        assert first == serial
        assert second == serial
        assert len(attempts) == 1
        assert leaked_segments() == before

    def test_obs_counts_segment_lifecycle(self, record):
        with obs.capture() as registry:
            with ReplayPool(record, jobs=2) as pool:
                pool.replay_batch(all_intervals(record))
        assert registry.value("perf.shm.created") == 1
        assert registry.value("perf.shm.unlinked") == 1
        assert registry.value("perf.shm.bytes") > 0
        assert registry.value("perf.pool.bytes_shipped") > 0
        assert registry.value("perf.pool.chunks") >= 1


class TestCostModel:
    def test_interval_costs_positive_and_memoized(self, record):
        pool = ReplayPool(record, jobs=1)
        for pid, interval_id in all_intervals(record):
            cost = pool.interval_cost(pid, interval_id)
            assert cost >= 1
            assert pool.interval_cost(pid, interval_id) == cost

    def test_chunking_is_deterministic(self, record):
        requests = all_intervals(record)
        pool = ReplayPool(record, jobs=2)
        try:
            first = pool._chunk(requests)
            second = pool._chunk(requests)
        finally:
            pool.close()
        assert first == second
        assert sorted(key for chunk in first for key in chunk) == sorted(requests)


class TestAdaptivePolicy:
    def test_auto_sizes_jobs_from_cpus(self, record):
        with ReplayPool(record, jobs="auto") as pool:
            assert pool.adaptive
            assert pool.jobs == default_jobs()

    def test_small_batches_stay_serial(self, record):
        """A cold pool never forks workers for a tiny expansion."""
        requests = all_intervals(record)
        with ReplayPool(record, jobs="auto") as pool:
            mass = sum(pool.interval_cost(pid, iid) for pid, iid in requests)
            assert mass < _COLD_STEPS  # the reference workloads are tiny
            results = pool.replay_batch(requests)
            info = pool.describe()
        assert len(results) == len(requests)
        if pool.jobs > 1 and len(requests) > 1:
            assert info["policy"]["serial"] == 1
            assert info["policy"]["pooled"] == 0
            assert info["policy"]["last"] == "serial"
        assert info["parallel"] is False
        assert info["fallbacks"] == 0  # adaptive serial is a choice, not a failure

    def test_adaptive_serial_matches_pooled_results(self, record):
        package = EmulationPackage(record)
        requests = all_intervals(record)
        with ReplayPool(record, jobs="auto") as pool:
            results = pool.replay_batch(requests)
        for (pid, interval_id), result in zip(requests, results):
            assert transcript(result) == transcript(
                package.replay(pid, interval_id, uid_base=0)
            )

    def test_fixed_jobs_pools_do_not_consult_policy(self, record):
        with ReplayPool(record, jobs=2) as pool:
            pool.replay_batch(all_intervals(record))
            info = pool.describe()
        assert info["adaptive"] is False
        assert info["policy"] == {"serial": 0, "pooled": 0, "last": ""}


class TestDefaultJobs:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_prefers_process_cpu_count(self, monkeypatch):
        import os as os_module

        import repro.perf.pool as pool_module

        monkeypatch.setattr(os_module, "process_cpu_count", lambda: 7, raising=False)
        assert pool_module.default_jobs() == 7
