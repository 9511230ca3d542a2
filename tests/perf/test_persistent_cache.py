"""The persistent replay cache: write-through spill at insert, the
``PPD_CACHE_DIR`` environment override, and cross-run cache warmth.

The promise under test: point two *independent* processes (modelled here
as two independent ``ReplayCache`` instances) at the same directory and
the second starts warm — keyed by record digest, so even a record
reloaded from disk (different object, same content) hits the same
entries.
"""

import os

import pytest

import repro.perf as perf
from repro import Machine, compile_program
from repro.core.emulation import EmulationPackage, interval_indexes
from repro.perf import ReplayCache, ReplayPool, record_digest
from repro.runtime.persist import load_record, save_record
from repro.workloads import fig61_program


@pytest.fixture(scope="module")
def record():
    return Machine(compile_program(fig61_program()), seed=1, mode="logged").run()


@pytest.fixture(scope="module")
def results(record):
    package = EmulationPackage(record)
    return {
        (pid, interval_id): package.replay(pid, interval_id, uid_base=0)
        for pid, index in interval_indexes(record).items()
        for interval_id in index
    }


def spill_files(cache_dir):
    return sorted(n for n in os.listdir(cache_dir) if n.endswith(".replay.pkl"))


class TestWriteThrough:
    def test_spills_at_insert_not_eviction(self, tmp_path, record, results):
        cache = ReplayCache(spill_dir=str(tmp_path))
        (pid, interval_id), result = next(iter(results.items()))
        cache.put(record, pid, interval_id, result)
        assert cache.stats.evictions == 0
        assert cache.stats.spills == 1
        assert len(spill_files(tmp_path)) == 1

    def test_directory_is_a_complete_replica(self, tmp_path, record, results):
        cache = ReplayCache(spill_dir=str(tmp_path))
        for (pid, interval_id), result in results.items():
            cache.put(record, pid, interval_id, result)
        assert len(spill_files(tmp_path)) == len(results)

    def test_spill_loaded_entries_are_not_rewritten(self, tmp_path, record, results):
        writer = ReplayCache(spill_dir=str(tmp_path))
        for (pid, interval_id), result in results.items():
            writer.put(record, pid, interval_id, result)
        reader = ReplayCache(spill_dir=str(tmp_path))
        for pid, interval_id in results:
            assert reader.get(record, pid, interval_id) is not None
        assert reader.stats.spill_hits == len(results)
        assert reader.stats.spills == 0  # re-spilling replicas is wasted I/O

    def test_pool_writes_one_frame_per_interval(self, tmp_path, monkeypatch, record, results):
        """Each replayed interval costs one atomic rename and leaves one
        spill frame; nothing else lands in the directory."""
        import repro.perf.cache as cache_module

        renames = []
        real_replace = os.replace

        def counting_replace(src, dst):
            renames.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", counting_replace)
        cache = ReplayCache(spill_dir=str(tmp_path))
        with ReplayPool(record, jobs=1, cache=cache) as pool:
            pool.replay_batch(sorted(results))
        assert len(spill_files(tmp_path)) == len(results)
        assert sorted(os.listdir(tmp_path)) == spill_files(tmp_path)
        assert len(renames) == len(results)

    def test_requires_spill_dir(self, record, results):
        cache = ReplayCache()
        (pid, interval_id), result = next(iter(results.items()))
        cache.put(record, pid, interval_id, result)
        assert cache.stats.spills == 0

    def test_describe_reports_mode(self, tmp_path):
        cache = ReplayCache(spill_dir=str(tmp_path))
        assert cache.describe()["spill_dir"] == str(tmp_path)


class TestCrossRunWarmth:
    def test_second_run_starts_warm(self, tmp_path, record, results):
        """Run 1 replays and exits; run 2 serves everything from disk."""
        first = ReplayCache(spill_dir=str(tmp_path))
        with ReplayPool(record, jobs=1, cache=first) as pool:
            pool.replay_batch(sorted(results))
        del first, pool

        second = ReplayCache(spill_dir=str(tmp_path))
        with ReplayPool(record, jobs=1, cache=second) as pool:
            warm = pool.replay_batch(sorted(results))
            assert pool.executed == 0  # nothing re-replayed
        assert second.stats.spill_hits == len(results)
        for key, result in zip(sorted(results), warm):
            assert result == results[key]

    def test_reloaded_record_hits_same_entries(self, tmp_path, record, results):
        """Content addressing: a record round-tripped through persist has
        a different identity but the same digest, so it stays warm."""
        warmed = ReplayCache(spill_dir=str(tmp_path / "cache"))
        for (pid, interval_id), result in results.items():
            warmed.put(record, pid, interval_id, result)

        path = str(tmp_path / "run.ppd.json")
        save_record(record, path)
        reloaded = load_record(path)
        assert reloaded is not record
        assert record_digest(reloaded) == record_digest(record)

        fresh = ReplayCache(spill_dir=str(tmp_path / "cache"))
        pid, interval_id = next(iter(results))
        hit = fresh.get(reloaded, pid, interval_id)
        assert hit is not None
        assert hit == results[(pid, interval_id)]
        assert fresh.stats.spill_hits == 1

    def test_corrupt_spill_degrades_to_miss(self, tmp_path, record, results):
        cache = ReplayCache(spill_dir=str(tmp_path))
        (pid, interval_id), result = next(iter(results.items()))
        cache.put(record, pid, interval_id, result)
        name = spill_files(tmp_path)[0]
        (tmp_path / name).write_bytes(b"PPDSPILL1\n" + b"\x00" * 40)
        fresh = ReplayCache(spill_dir=str(tmp_path))
        assert fresh.get(record, pid, interval_id) is None
        assert fresh.stats.spill_bad == 1
        assert spill_files(tmp_path) == []  # bad file deleted, not re-tripped


class TestEnvOverride:
    @pytest.fixture(autouse=True)
    def _fresh_shared_cache(self, monkeypatch):
        monkeypatch.setattr(perf, "_shared_cache", None)
        yield
        monkeypatch.setattr(perf, "_shared_cache", None)

    def test_ppd_cache_dir_enables_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv(perf.CACHE_DIR_ENV, str(tmp_path))
        cache = perf.replay_cache()
        assert cache.spill_dir == str(tmp_path)

    def test_unset_env_keeps_memory_only_default(self, monkeypatch):
        monkeypatch.delenv(perf.CACHE_DIR_ENV, raising=False)
        cache = perf.replay_cache()
        assert cache.spill_dir is None

    def test_shared_cache_round_trips_across_simulated_runs(
        self, tmp_path, monkeypatch, record, results
    ):
        monkeypatch.setenv(perf.CACHE_DIR_ENV, str(tmp_path))
        first = perf.replay_cache()
        (pid, interval_id), result = next(iter(results.items()))
        first.put(record, pid, interval_id, result)
        # Simulate a new process: fresh module state, same environment.
        monkeypatch.setattr(perf, "_shared_cache", None)
        second = perf.replay_cache()
        assert second is not first
        assert second.get(record, pid, interval_id) == result
        assert second.stats.spill_hits == 1
