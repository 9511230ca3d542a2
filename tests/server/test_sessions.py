"""Session-store tests: LRU eviction, idle timeout, transparent rehydration."""

import json

import pytest

from repro import obs
from repro.perf import ReplayCache
from repro.runtime import record_to_json, run_program
from repro.server import SessionManager, SessionNotFound
from repro.workloads import bank_race, buggy_average, nested_calls

AVG_INPUTS = [10, 20, 30, 40, 50]


def open_average(mgr, seed=0):
    return mgr.open_program(buggy_average(5), seed=seed, inputs=AVG_INPUTS)


@pytest.fixture()
def mgr(tmp_path):
    manager = SessionManager(max_live=2, spool_dir=str(tmp_path / "spool"))
    yield manager
    manager.close_all()


class TestLifecycle:
    def test_open_and_execute(self, mgr):
        sid, info = open_average(mgr)
        assert info["live"] is True
        assert info["status"].startswith("failed:")
        assert "average = 20" in mgr.execute(sid, "output")

    def test_session_ids_are_unique(self, mgr):
        sids = {open_average(mgr)[0] for _ in range(3)}
        assert len(sids) == 3

    def test_close_removes_session(self, mgr):
        sid, _ = open_average(mgr)
        mgr.close(sid)
        with pytest.raises(SessionNotFound):
            mgr.execute(sid, "where")
        with pytest.raises(SessionNotFound):
            mgr.close(sid)

    def test_list_info_is_lru_ordered(self, mgr):
        sid_a, _ = open_average(mgr)
        sid_b, _ = open_average(mgr)
        mgr.execute(sid_a, "where")  # A becomes most recent
        listed = [info["session"] for info in mgr.list_info()]
        assert listed == [sid_b, sid_a]


class TestEviction:
    def test_lru_cap_evicts_oldest(self, tmp_path):
        mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
        sid_a, _ = open_average(mgr)
        sid_b, _ = open_average(mgr)
        assert not mgr.is_live(sid_a)
        assert mgr.is_live(sid_b)
        mgr.close_all()

    def test_rehydration_is_transparent(self, tmp_path):
        mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
        sid_a, _ = mgr.open_program(bank_race(2, 2), seed=3)
        commands = ["where", "races", "why balance", "stats", "parallel", "output"]
        before = {cmd: mgr.execute(sid_a, cmd) for cmd in commands}
        open_average(mgr)  # evicts A
        assert not mgr.is_live(sid_a)
        after = {cmd: mgr.execute(sid_a, cmd) for cmd in commands}
        assert before == after
        mgr.close_all()

    def test_journal_replays_expansions(self, tmp_path):
        mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
        sid, _ = open_average(mgr)
        listing = mgr.execute(sid, "expandable")
        uid = int(listing.split(":")[0].lstrip("#"))
        mgr.execute(sid, f"expand {uid}")
        why_after_expand = mgr.execute(sid, "why s")
        stats = mgr.execute(sid, "stats")
        mgr.open_program(nested_calls(), seed=0)  # evicts
        assert not mgr.is_live(sid)
        assert mgr.execute(sid, "expandable") == "(nothing to expand)"
        assert mgr.execute(sid, "why s") == why_after_expand
        assert mgr.execute(sid, "stats") == stats
        mgr.close_all()

    def test_failed_commands_are_not_journaled(self, tmp_path):
        mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
        sid, _ = open_average(mgr)
        assert mgr.execute(sid, "expand 999999").startswith("error:")
        mgr.open_program(nested_calls(), seed=0)
        # Rehydration must not replay the failing expand.
        assert "average = 20" in mgr.execute(sid, "output")
        mgr.close_all()

    def test_idle_timeout_evicts(self, tmp_path):
        fake_now = [0.0]
        mgr = SessionManager(
            max_live=4,
            idle_timeout_s=10.0,
            spool_dir=str(tmp_path),
            time_fn=lambda: fake_now[0],
        )
        sid_a, _ = open_average(mgr)
        sid_b, _ = open_average(mgr)
        fake_now[0] = 5.0
        mgr.execute(sid_b, "where")  # B stays fresh
        fake_now[0] = 11.0
        assert mgr.sweep_idle() == 1
        assert not mgr.is_live(sid_a)
        assert mgr.is_live(sid_b)
        # ... and the evicted session still answers identically.
        assert "average = 20" in mgr.execute(sid_a, "output")
        mgr.close_all()

    def test_obs_counters_track_evictions(self, tmp_path):
        with obs.capture() as registry:
            mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
            sid_a, _ = open_average(mgr)
            open_average(mgr)
            mgr.execute(sid_a, "where")  # rehydrates A, evicts B
            mgr.close_all()
        assert registry.value("server.sessions.opened") == 2
        assert registry.value("server.evictions") >= 2
        assert registry.value("server.rehydrations") == 1
        assert registry.value("server.sessions.closed") == 2


class TestOpenSources:
    def test_open_record_json_and_path(self, tmp_path, mgr):
        from repro.runtime import save_record

        record = run_program(nested_calls(), seed=0)
        sid_json, _ = mgr.open_record_json(record_to_json(record))
        path = tmp_path / "run.ppd.json"
        save_record(record, str(path))
        sid_path, info = mgr.open_record_path(str(path))
        assert mgr.execute(sid_json, "output") == mgr.execute(sid_path, "output")
        assert info["origin"] == str(path)

    def test_corrupt_record_raises_persist_error(self, mgr):
        from repro.runtime import PersistError

        with pytest.raises(PersistError):
            mgr.open_record_json("{broken")


def average_upload():
    """The persisted form of ``open_average``'s run, indented so that it
    differs from what ``record_to_json`` would write (the content digest
    covers values, not layout, so it still verifies)."""
    record = run_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
    return json.dumps(json.loads(record_to_json(record)), indent=1)


class TestUploadSpill:
    def test_upload_is_spilled_byte_for_byte(self, tmp_path):
        spool = tmp_path / "spool"
        mgr = SessionManager(spool_dir=str(spool))
        text = average_upload()
        mgr.open_record_json(text)
        (spill,) = spool.iterdir()
        assert spill.read_text() == text
        mgr.close_all()

    def test_evicted_upload_rehydrates_from_its_spill(self, tmp_path):
        mgr = SessionManager(max_live=1, spool_dir=str(tmp_path))
        sid, _ = mgr.open_record_json(average_upload())
        commands = ["where", "why average", "races", "stats", "output"]
        before = {cmd: mgr.execute(sid, cmd) for cmd in commands}
        mgr.open_program(nested_calls(), seed=0)  # evicts the upload
        assert not mgr.is_live(sid)
        after = {cmd: mgr.execute(sid, cmd) for cmd in commands}
        assert after == before
        assert mgr.list_info()[-1]["rehydrations"] == 1
        mgr.close_all()

    def test_program_and_upload_share_cache_entries(self, tmp_path):
        cache = ReplayCache()
        mgr = SessionManager(spool_dir=str(tmp_path), cache=cache)
        commands = ["where", "why average", "expandable"]
        sid, _ = open_average(mgr)
        by_program = [mgr.execute(sid, cmd) for cmd in commands]
        misses = cache.stats.misses
        hits = cache.stats.hits
        assert misses > 0
        sid, _ = mgr.open_record_json(average_upload())
        assert [mgr.execute(sid, cmd) for cmd in commands] == by_program
        assert cache.stats.misses == misses
        assert cache.stats.hits > hits
        mgr.close_all()
