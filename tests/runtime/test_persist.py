"""Record persistence tests: the on-disk log file story (§5.6)."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import compile_program, Machine, PPDSession, render_flowback
from repro.core import ParallelDynamicGraph, find_races_indexed
from repro.runtime import (
    load_record,
    persist,
    record_from_json,
    record_to_json,
    run_program,
    save_record,
)
from repro.runtime.logging import ENTRY_SHAPES
from repro.runtime.persist import (
    RecordCorruptError,
    RecordDigestError,
    RecordVersionError,
    record_content_digest,
)
from repro.workloads import (
    bank_race,
    buggy_average,
    dining_philosophers,
    fib_recursive,
    fig53_program,
    fig61_program,
    nested_calls,
    ring_allreduce,
)
from tests.oracle.persist_v2 import record_to_json_v2


def round_trip(record):
    return record_from_json(record_to_json(record))


def tamper_source(text: str) -> str:
    """*text* with one byte of its embedded source changed (a character
    the lexer rejects), and the digest left as it was."""
    index = text.index("proc", text.index('"source":"'))
    return text[:index] + "`" + text[index + 1 :]


class TestRoundTrip:
    def test_sequential_record(self):
        record = run_program(nested_calls(), seed=0)
        loaded = round_trip(record)
        assert loaded.output == record.output
        assert loaded.seed == record.seed
        assert loaded.log_entry_count() == record.log_entry_count()
        assert loaded.shared_final == record.shared_final

    def test_parallel_record_history(self):
        record = run_program(fig53_program(), seed=1)
        loaded = round_trip(record)
        assert len(loaded.history.nodes) == len(record.history.nodes)
        assert len(loaded.history.edges) == len(record.history.edges)
        assert len(loaded.history.segments) == len(record.history.segments)
        # Vector clocks survive: ordering queries agree.
        before = ParallelDynamicGraph.from_history(record.history)
        after = ParallelDynamicGraph.from_history(loaded.history)
        for uid_a in list(record.history.nodes)[:5]:
            for uid_b in list(record.history.nodes)[:5]:
                assert before.node_ordered(uid_a, uid_b) == after.node_ordered(uid_a, uid_b)

    def test_failure_info_survives(self):
        record = run_program(
            buggy_average(5), seed=0, inputs=[10, 20, 30, 40, 50]
        )
        loaded = round_trip(record)
        assert loaded.failure is not None
        assert loaded.failure.message == record.failure.message
        assert loaded.process_steps == record.process_steps

    def test_plain_record_rejected(self):
        record = run_program(nested_calls(), seed=0, mode="plain")
        with pytest.raises(ValueError):
            record_to_json(record)

    def test_version_check(self):
        import json

        record = run_program(nested_calls(), seed=0)
        body = json.loads(record_to_json(record))
        body["version"] = 99
        with pytest.raises(ValueError):
            record_from_json(json.dumps(body))

    def test_scheduler_totals_survive(self):
        record = run_program(fig53_program(), seed=1)
        loaded = round_trip(record)
        assert loaded.preemptions == record.preemptions
        assert loaded.context_switches == record.context_switches

    def test_file_round_trip(self, tmp_path):
        record = run_program(nested_calls(), seed=0)
        path = tmp_path / "run.ppd.json"
        save_record(record, str(path))
        loaded = load_record(str(path))
        assert loaded.output == record.output


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

_SAVE_EXAMPLES = """
import hashlib, pathlib, sys
from repro.runtime import record_to_json, run_program
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.pcl")):
    text = record_to_json(run_program(path.read_text(), seed=0))
    print(path.name, hashlib.sha256(text.encode()).hexdigest())
"""


class TestHashSeedIndependence:
    """The saved bytes of a run do not depend on ``PYTHONHASHSEED``.

    Log ``values`` dicts are filled by iterating the plan's name sets.  In
    string-hash order, ``locked_counters.pcl`` saved under hash seeds 1 and
    2 gave two different files with one content digest.
    """

    def _saved_hashes(self, hash_seed: str) -> dict[str, str]:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _SAVE_EXAMPLES, str(EXAMPLES)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        return dict(line.split() for line in result.stdout.splitlines())

    def test_examples_save_the_same_bytes(self):
        first = self._saved_hashes("1")
        assert "locked_counters.pcl" in first
        assert self._saved_hashes("2") == first

    def test_values_in_another_order_still_load(self):
        """A version-2 file whose values are in some other order (as an
        older writer's hash order left them) loads and passes its digest
        check."""
        import json

        record = run_program((EXAMPLES / "locked_counters.pcl").read_text(), seed=0)
        body = json.loads(record_to_json_v2(record))
        reordered = 0
        for entries in body["logs"].values():
            for entry in entries:
                if len(entry.get("values", ())) > 1:
                    entry["values"] = dict(reversed(entry["values"].items()))
                    reordered += 1
        assert reordered
        loaded = record_from_json(json.dumps(body))
        assert record_content_digest(loaded) == record_content_digest(record)
        for pid, log in record.logs.items():
            assert loaded.logs[pid].entries == log.entries


class TestWrittenLayout:
    """A save writes the canonical body once, behind its digest; a load
    checks that digest over the bytes as read, and re-dumps only a
    document in some other layout."""

    @pytest.fixture()
    def record(self):
        return run_program(fig53_program(), seed=1)

    def test_file_is_digest_then_canonical_body(self, record, tmp_path):
        path = tmp_path / "run.ppd.json"
        save_record(record, str(path))
        data = path.read_bytes()
        head = re.match(rb'\{"digest":"([0-9a-f]{64})",', data)
        assert head is not None
        body = json.loads(data)
        digest = body.pop("digest")
        assert head.group(1).decode() == digest
        canonical = json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
        assert b"{" + data[head.end() :] == canonical
        assert hashlib.sha256(canonical).hexdigest() == digest

    def test_older_layout_loads_with_the_same_digest(self, record, monkeypatch):
        """The previous writer's layout: body keys in insertion order and
        the digest last.  Same keys, values and length; it takes the
        re-dump check."""
        text = record_to_json(record)
        digest = json.loads(text)["digest"]
        older = json.dumps(
            dict(persist._record_body(record), digest=digest), separators=(",", ":")
        )
        assert older != text and len(older) == len(text)
        assert json.loads(older) == json.loads(text)
        redumps = []
        content_digest = persist._content_digest
        monkeypatch.setattr(
            persist,
            "_content_digest",
            lambda body: redumps.append(body) or content_digest(body),
        )
        loaded = record_from_json(older)
        assert len(redumps) == 1
        assert record_content_digest(loaded) == digest
        assert record_to_json(loaded) == text

    def test_written_layout_passes_the_older_check(self, record):
        """An older build re-dumps the parsed body: the digest holds."""
        body = json.loads(record_to_json(record))
        assert persist._content_digest(body) == body["digest"]

    def test_loading_the_written_layout_redumps_nothing(
        self, record, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "run.ppd.json")
        save_record(record, path)
        text = record_to_json(record)
        redumps = []
        monkeypatch.setattr(persist, "_content_digest", redumps.append)
        assert record_content_digest(load_record(path)) == json.loads(text)["digest"]
        assert record_to_json(record_from_json(text)) == text
        assert redumps == []

    def test_save_dumps_the_body_once(self, record, tmp_path, monkeypatch):
        dumps = []
        real_dumps = json.dumps
        monkeypatch.setattr(
            json, "dumps", lambda *args, **kwargs: dumps.append(args) or real_dumps(*args, **kwargs)
        )
        save_record(record, str(tmp_path / "run.ppd.json"))
        assert len(dumps) == 1

    def test_head_digest_must_match_the_parsed_digest(self, record):
        """A document whose head digest covers its bytes, but whose body
        repeats ``digest`` with another value, takes the re-dump check."""
        text = record_to_json(record)
        rest = text[text.index(",") + 1 : -1] + ',"digest":"' + "0" * 64 + '"}'
        head = hashlib.sha256(("{" + rest).encode()).hexdigest()
        with pytest.raises(RecordDigestError):
            record_from_json(f'{{"digest":"{head}",{rest}')


class TestPersistError:
    """Corrupt and future-version input raises the typed PersistError
    (never a raw KeyError / json.JSONDecodeError)."""

    def _body(self):
        import json

        return json.loads(record_to_json(run_program(nested_calls(), seed=0)))

    def test_not_json(self):
        from repro.runtime import PersistError

        with pytest.raises(PersistError) as excinfo:
            record_from_json("{definitely not json")
        assert "corrupt" in str(excinfo.value)

    def test_not_an_object(self):
        from repro.runtime import PersistError

        with pytest.raises(PersistError):
            record_from_json("[1, 2, 3]")

    def test_future_version_names_field(self):
        import json

        from repro.runtime import PersistError

        body = self._body()
        body["version"] = 99
        with pytest.raises(PersistError) as excinfo:
            record_from_json(json.dumps(body))
        assert excinfo.value.field == "version"
        assert "99" in str(excinfo.value)

    def test_missing_version_names_field(self):
        import json

        from repro.runtime import PersistError

        body = self._body()
        del body["version"]
        with pytest.raises(PersistError) as excinfo:
            record_from_json(json.dumps(body))
        assert excinfo.value.field == "version"

    def test_missing_field_is_named(self):
        import json

        from repro.runtime import PersistError

        body = self._body()
        del body["history"]
        with pytest.raises(PersistError) as excinfo:
            record_from_json(json.dumps(body))
        assert excinfo.value.field == "history"

    def test_structurally_broken_body_is_wrapped(self):
        import json

        from repro.runtime import PersistError

        body = self._body()
        body["logs"] = {"0": [{"kind": "NoSuchEntry", "t": 0, "pid": 0}]}
        with pytest.raises(PersistError) as excinfo:
            record_from_json(json.dumps(body))
        assert "corrupt record" in str(excinfo.value)

    def test_load_record_carries_path(self, tmp_path):
        from repro.runtime import PersistError, load_record

        path = tmp_path / "broken.ppd.json"
        path.write_text("{nope")
        with pytest.raises(PersistError) as excinfo:
            load_record(str(path))
        assert excinfo.value.path == str(path)
        assert str(path) in str(excinfo.value)

    def test_persist_error_is_a_value_error(self):
        from repro.runtime import PersistError

        assert issubclass(PersistError, ValueError)

    def test_file_that_is_not_utf8_is_corrupt_and_quarantined(self, tmp_path):
        path = tmp_path / "bin.ppd.json"
        path.write_bytes(b'{"version":1,"source":"\xff\xfe"}')
        with pytest.raises(RecordCorruptError) as excinfo:
            load_record(str(path))
        assert "UTF-8" in str(excinfo.value)
        assert excinfo.value.quarantined == str(path) + ".quarantined"
        assert not path.exists()

    def test_text_that_cannot_be_utf8_is_corrupt(self):
        """A lone surrogate in an otherwise loadable (digest-less) document."""
        body = self._body()
        del body["digest"]
        body["output"].append([0, "\ud800"])
        with pytest.raises(RecordCorruptError) as excinfo:
            record_from_json(json.dumps(body, ensure_ascii=False))
        assert "UTF-8" in str(excinfo.value)

    def test_tampered_source_fails_the_digest_before_compiling(self, tmp_path):
        path = tmp_path / "run.ppd.json"
        path.write_text(tamper_source(record_to_json(run_program(nested_calls(), seed=0))))
        with pytest.raises(RecordDigestError) as excinfo:
            load_record(str(path))
        assert excinfo.value.field == "digest"
        assert excinfo.value.quarantined == str(path) + ".quarantined"

    def test_signed_source_that_does_not_compile_is_corrupt(self):
        body = json.loads(tamper_source(record_to_json(run_program(nested_calls(), seed=0))))
        body["digest"] = persist._content_digest(body)
        with pytest.raises(RecordCorruptError) as excinfo:
            record_from_json(json.dumps(body))
        assert excinfo.value.field == "source"
        assert "lex error" in str(excinfo.value)

    def test_boolean_version_is_rejected(self):
        body = self._body()
        body["version"] = True
        body["digest"] = persist._content_digest(body)
        with pytest.raises(RecordVersionError) as excinfo:
            record_from_json(json.dumps(body))
        assert excinfo.value.field == "version"


FIXTURES = Path(__file__).with_name("fixtures")

ENTRY_SHAPES_BY_KIND = {shape.kind: shape for shape in ENTRY_SHAPES.values()}

#: Format-1 files saved by the last format-1 build (commit f719f52) with
#: ``save_record(Machine(compile_program(source), seed=1).run(), path)``.
V1_FIXTURES = {
    "fig61.seed1.v1.ppd.json": (fig61_program, 1),
    "semaphore_pipeline.seed1.v1.ppd.json": (
        lambda: (EXAMPLES / "semaphore_pipeline.pcl").read_text(), 1
    ),
    "calc_service.seed1.v1.ppd.json": (
        lambda: (EXAMPLES / "calc_service.pcl").read_text(), 1
    ),
}

#: Format-2 files of the same programs and seed, saved the same way by the
#: last format-2 build (commit b1e0783).
V2_FIXTURES = {name.replace(".v1.", ".v2."): case for name, case in V1_FIXTURES.items()}


def resigned(body: dict) -> str:
    """*body* as a document whose digest matches its (edited) content."""
    body = dict(body)
    body["digest"] = persist._content_digest(body)
    return json.dumps(body)


def load_bad(tmp_path, text: str, error=RecordCorruptError):
    """Load *text* from a file: it must fail typed and be quarantined."""
    path = tmp_path / "bad.ppd.json"
    path.write_text(text)
    with pytest.raises(error) as excinfo:
        load_record(str(path))
    assert excinfo.value.quarantined == str(path) + ".quarantined"
    assert not path.exists()
    return excinfo.value


def fresh_run(program, seed):
    return Machine(compile_program(program()), seed=seed, mode="logged").run()


def first_index(entries, kind):
    return next(index for index, entry in enumerate(entries) if entry["kind"] == kind)


class TestFormatVersion2:
    """Version 2 persists no clock; a sync entry names its node by uid.
    Its files load through the version-2 reader and re-save as version 3."""

    @pytest.fixture()
    def body(self):
        return json.loads((FIXTURES / "fig61.seed1.v2.ppd.json").read_text())

    @pytest.mark.parametrize("name", sorted(V2_FIXTURES))
    def test_fixture_loads_as_a_fresh_run(self, name):
        text = (FIXTURES / name).read_text()
        assert json.loads(text)["version"] == 2
        loaded = record_from_json(text)
        fresh = fresh_run(*V2_FIXTURES[name])
        assert record_to_json(loaded) == record_to_json(fresh)
        assert record_to_json_v2(fresh) == text
        assert record_content_digest(loaded) == record_content_digest(fresh)

    def test_nodes_carry_no_clock_and_entries_only_a_uid(self, body):
        assert body["version"] == 2
        assert all("clock" not in node for node in body["history"]["nodes"])
        sync_entries = [
            entry for entries in body["logs"].values() for entry in entries
            if entry["kind"] == "SyncLog"
        ]
        assert len(sync_entries) == len(body["history"]["nodes"])
        assert all(set(entry) == {"kind", "uid"} for entry in sync_entries)

    def test_load_derives_no_clock_and_entries_are_nodes(self, body):
        loaded = record_from_json(json.dumps(body))
        assert loaded.history._derived is None
        for log in loaded.logs.values():
            for entry in log:
                if entry.kind == "SyncLog":
                    assert loaded.history.nodes[entry.uid] is entry

    @staticmethod
    def _sync_entry(body, pid: str):
        return next(
            (i, e) for i, e in enumerate(body["logs"][pid]) if e["kind"] == "SyncLog"
        )

    def test_unknown_uid_is_corrupt(self, body, tmp_path):
        index, entry = self._sync_entry(body, "1")
        entry["uid"] = 10_000
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{index}].uid"

    def test_uid_of_another_process_is_corrupt(self, body, tmp_path):
        index, entry = self._sync_entry(body, "1")
        entry["uid"] = body["history"]["nodes"][0]["uid"]  # main's begin
        assert body["history"]["nodes"][0]["pid"] == 0
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{index}].uid"

    def test_backward_edge_is_corrupt(self, body, tmp_path):
        edge = body["history"]["edges"][2]
        edge["src"], edge["dst"] = edge["dst"], edge["src"]
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.edges[2].src"

    def test_dangling_edge_is_corrupt(self, body, tmp_path):
        body["history"]["edges"][3]["dst"] = 10_000
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.edges[3].dst"
        body["history"]["edges"][3]["dst"] = body["history"]["edges"][3]["src"] + 1
        body["history"]["edges"][3]["src"] = -5
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.edges[3].src"

    def test_segment_that_disagrees_with_node_order_is_corrupt(self, body, tmp_path):
        """Version 3 derives a segment's bounds, so a version-2 segment
        that disagrees with them would change on a re-save."""
        segment = body["history"]["segments"][3]
        segment["end"] = None if segment["end"] is not None else segment["start"] + 1
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.segments[3]"
        del body["history"]["segments"][3]
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.segments[3]"

    def test_sync_index_out_of_order_is_corrupt(self, body, tmp_path):
        index, entry = self._sync_entry(body, "1")
        node = body["history"]["nodes"][entry["uid"] - 1]
        assert node["uid"] == entry["uid"] and node["sync_index"] == 1
        node["sync_index"] = 2
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{index}]"

    def test_node_no_log_names_is_corrupt(self, body, tmp_path):
        entries = body["logs"]["1"]
        last = max(i for i, e in enumerate(entries) if e["kind"] == "SyncLog")
        del entries[last]
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.nodes"

    def test_postlog_of_another_interval_is_corrupt(self, body, tmp_path):
        entries = body["logs"]["0"]
        index = first_index(entries, "Postlog")
        entries[index]["interval_id"] += 100
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.0[{index}]"


class TestFormatVersion3:
    """Version 3 saves each fact once: a sync entry is a bare uid, nodes,
    edges and segments are columns, and a load derives the rest."""

    @pytest.fixture()
    def body(self):
        return json.loads(record_to_json(run_program(fig61_program(), seed=1)))

    def test_layout(self, body):
        assert body["version"] == persist.FORMAT_VERSION == 3
        history = body["history"]
        assert set(history["nodes"]) == {"t", "op", "obj", "node_id"}
        assert set(history["edges"]) == {"src", "dst", "label"}
        assert set(history["segments"]) == {"steps", "events", "accesses"}
        uids = sorted(row for rows in body["logs"].values() for row in rows if type(row) is int)
        assert uids == list(range(1, len(history["nodes"]["t"]) + 1))
        for rows in body["logs"].values():
            for row in rows:
                if type(row) is list:
                    shape = ENTRY_SHAPES_BY_KIND[row[0]]
                    assert len(row) == len(shape.attrs)  # kind and t, no pid

    @pytest.mark.parametrize(
        "source,seed",
        [
            (fig61_program(), 1),
            (ring_allreduce(8, deviant=3), 0),
            (dining_philosophers(3), 2),  # deadlocks: open segments
            (buggy_average(5), 0),  # fails: open intervals
            (fib_recursive(6), 0),
        ],
        ids=["fig61", "ring_allreduce", "dining_philosophers", "buggy_average", "fib"],
    )
    def test_load_rebuilds_what_the_run_built(self, source, seed):
        record = run_program(source, seed=seed, inputs=[10, 20, 30, 40, 50])
        text = record_to_json(record)
        loaded = record_from_json(text)
        assert record_to_json(loaded) == text
        history = loaded.history
        assert history.nodes == record.history.nodes
        assert list(history.nodes) == list(record.history.nodes)
        assert history.per_process == record.history.per_process
        assert history.edges == record.history.edges
        assert history.segments == record.history.segments
        for pid, log in record.logs.items():
            assert loaded.logs[pid].entries == log.entries
            for entry in loaded.logs[pid]:
                if entry.kind == "SyncLog":
                    assert history.nodes[entry.uid] is entry

    def test_unequal_node_columns_are_corrupt(self, body, tmp_path):
        body["history"]["nodes"]["obj"].pop()
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.nodes.obj"

    @staticmethod
    def _sync_rows(body, pid: str):
        return [index for index, row in enumerate(body["logs"][pid]) if type(row) is int]

    def test_uid_out_of_range_is_corrupt(self, body, tmp_path):
        index = self._sync_rows(body, "1")[-1]
        body["logs"]["1"][index] = 10_000
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{index}]"

    def test_uid_named_by_two_logs_is_corrupt(self, body, tmp_path):
        index = self._sync_rows(body, "1")[0]
        body["logs"]["1"][index] = body["logs"]["0"][self._sync_rows(body, "0")[0]]
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{index}]"

    def test_uids_out_of_order_are_corrupt(self, body, tmp_path):
        rows = body["logs"]["1"]
        first, second = self._sync_rows(body, "1")[:2]
        rows[first], rows[second] = rows[second], rows[first]
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{second}]"

    def test_node_no_log_names_is_corrupt(self, body, tmp_path):
        index = self._sync_rows(body, "1")[-1]
        uid = body["logs"]["1"].pop(index)
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"history.nodes[{uid - 1}]"

    @pytest.mark.parametrize("name", ["steps", "events"])
    def test_one_value_per_segment(self, body, tmp_path, name):
        body["history"]["segments"][name].append(0)
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"history.segments.{name}"

    def test_access_rows_must_name_later_segments(self, body, tmp_path):
        accesses = body["history"]["segments"]["accesses"]
        assert len(accesses) > 1
        accesses[0], accesses[1] = accesses[1], accesses[0]
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.segments.accesses[1]"
        accesses[0], accesses[1] = accesses[1], accesses[0]
        accesses[-1][0] = len(body["history"]["segments"]["steps"])
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"history.segments.accesses[{len(accesses) - 1}]"

    def test_access_row_of_the_wrong_width_is_corrupt(self, body, tmp_path):
        body["history"]["segments"]["accesses"][0].pop()
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.segments.accesses[0]"

    @pytest.mark.parametrize(
        "change",
        [
            lambda row: ["NoSuchEntry", *row[1:]],
            lambda row: row[:-1],
            lambda row: [*row, 0],
            lambda row: {"kind": row[0], "t": row[1]},
        ],
        ids=["unknown-kind", "short", "long", "object"],
    )
    def test_entry_row_of_an_unknown_kind_or_width_is_corrupt(self, body, tmp_path, change):
        rows = body["logs"]["0"]
        index = next(index for index, row in enumerate(rows) if type(row) is list)
        rows[index] = change(rows[index])
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.0[{index}]"

    def test_unequal_edge_columns_are_corrupt(self, body, tmp_path):
        body["history"]["edges"]["label"].append("sem")
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.edges.label"

    def test_backward_edge_is_corrupt(self, body, tmp_path):
        edges = body["history"]["edges"]
        edges["src"][2], edges["dst"][2] = edges["dst"][2], edges["src"][2]
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.edges.src[2]"

    def test_dangling_edge_is_corrupt(self, body, tmp_path):
        edges = body["history"]["edges"]
        edges["dst"][3] = 10_000
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.edges.dst[3]"
        edges["dst"][3] = edges["src"][3] + 1
        edges["src"][3] = -5
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.edges.src[3]"

    def test_postlog_of_another_interval_is_corrupt(self, body, tmp_path):
        rows = body["logs"]["0"]
        index = next(
            index for index, row in enumerate(rows) if type(row) is list and row[0] == "Postlog"
        )
        rows[index][2] += 100  # interval_id
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.0[{index}]"

    def test_version_4_is_unsupported(self, body, tmp_path):
        body["version"] = 4
        error = load_bad(tmp_path, resigned(body), RecordVersionError)
        assert error.field == "version"


class TestIntervalsNest:
    """A record whose prelogs and postlogs do not pair fails at load,
    typed, in either reader; an open tail (a run that stopped inside its
    intervals) loads."""

    @staticmethod
    def _nested_postlog(body):
        """The first postlog of main's log whose interval is not the
        outermost one, and the outer interval's id."""
        rows = body["logs"]["0"]
        opened = []
        for index, row in enumerate(rows):
            if type(row) is list and row[0] == "Prelog":
                opened.append(row[2])
            elif type(row) is list and row[0] == "Postlog":
                if len(opened) > 1:
                    return index, opened[-2]
                opened.pop()
        raise AssertionError("no nested postlog")

    def test_postlog_of_an_outer_interval_fails_typed(self, tmp_path):
        body = json.loads(record_to_json(run_program(fib_recursive(5), seed=0)))
        index, outer = self._nested_postlog(body)
        body["logs"]["0"][index][2] = outer
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.0[{index}]"

    def test_open_tail_loads(self):
        record = run_program(buggy_average(5), seed=0, inputs=[10, 20, 30, 40, 50])
        assert record.failure is not None
        text = record_to_json(record)
        assert record_to_json(record_from_json(text)) == text
        assert record_to_json(record_from_json(record_to_json_v2(record))) == text


class TestFormatVersion1:
    """A version-1 file loads through the v1 reader, as the record a
    fresh run of its program and seed would save."""

    @pytest.mark.parametrize("name", sorted(V1_FIXTURES))
    def test_fixture_loads_as_a_fresh_run(self, name):
        text = (FIXTURES / name).read_text()
        assert json.loads(text)["version"] == 1
        loaded = record_from_json(text)
        assert record_to_json(loaded) == record_to_json(fresh_run(*V1_FIXTURES[name]))

    def test_named_by_the_current_digest(self):
        program, seed = V1_FIXTURES["fig61.seed1.v1.ppd.json"]
        text = (FIXTURES / "fig61.seed1.v1.ppd.json").read_text()
        loaded = record_from_json(text)
        assert not hasattr(loaded, "_ppd_digest")
        fresh = fresh_run(program, seed)
        assert record_content_digest(loaded) == record_content_digest(fresh)
        assert record_content_digest(loaded) != json.loads(text)["digest"]

    @pytest.fixture()
    def body(self):
        return json.loads((FIXTURES / "fig61.seed1.v1.ppd.json").read_text())

    def test_node_clock_that_disagrees_is_corrupt(self, body, tmp_path):
        node = body["history"]["nodes"][5]
        node["clock"][str(node["pid"])] += 1
        error = load_bad(tmp_path, resigned(body))
        assert error.field == "history.nodes[5].clock"

    def test_entry_clock_that_disagrees_is_corrupt(self, body, tmp_path):
        index, entry = next(
            (i, e) for i, e in enumerate(body["logs"]["2"]) if e["kind"] == "SyncLog"
        )
        entry["clock"]["0"] = entry["clock"].get("0", 0) + 1
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.2[{index}].clock"

    def test_unsigned_clock_change_fails_the_digest(self, body, tmp_path):
        body["history"]["nodes"][5]["clock"]["0"] = 99
        load_bad(tmp_path, json.dumps(body), RecordDigestError)

    def test_entry_that_disagrees_with_its_node_is_corrupt(self, body, tmp_path):
        index, entry = next(
            (i, e) for i, e in enumerate(body["logs"]["1"]) if e["kind"] == "SyncLog"
        )
        op = entry["op"]
        entry["op"] = "V"
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{index}].op"
        entry["op"], entry["sync_index"] = op, 99
        error = load_bad(tmp_path, resigned(body))
        assert error.field == f"logs.1[{index}].sync_index"


class TestLoadIsNotLogging:
    """A load rebuilds the logs a run wrote; it logs nothing itself."""

    @pytest.mark.parametrize("name", ["locked_counters.pcl", "fig61"])
    def test_no_log_counter_and_the_same_bytes(self, name):
        source = (
            fig61_program()
            if name == "fig61"
            else (Path(__file__).resolve().parents[2] / "examples" / name).read_text()
        )
        text = record_to_json(run_program(source, seed=1))
        with repro.obs.capture() as registry:
            loaded = record_from_json(text)
        assert not [key for key in registry.snapshot() if key.startswith("log.")]
        assert loaded.log_entry_count() > 0
        assert record_to_json(loaded) == text


class TestDebuggingLoadedRecords:
    def test_session_on_loaded_record(self):
        record = run_program(
            buggy_average(5), seed=0, inputs=[10, 20, 30, 40, 50]
        )
        loaded = round_trip(record)
        session = PPDSession(loaded)
        result = session.start()
        assert result.halted
        failure = session.failure_event()
        tree = session.flowback_expanding(failure.uid, max_depth=9)
        assert "total" in render_flowback(tree)

    def test_flowback_identical_before_and_after_persistence(self):
        record = run_program(
            buggy_average(5), seed=0, inputs=[10, 20, 30, 40, 50]
        )
        def slice_of(rec):
            from repro.core import slice_statements

            session = PPDSession(rec)
            session.start()
            failure = session.failure_event()
            return slice_statements(
                session.flowback_expanding(failure.uid, max_depth=9)
            )

        assert slice_of(record) == slice_of(round_trip(record))

    def test_race_detection_on_loaded_record(self):
        record = run_program(bank_race(2, 2), seed=3)
        loaded = round_trip(record)
        original = find_races_indexed(record.history)
        reloaded = find_races_indexed(loaded.history)
        key = lambda r: (r.seg_id_a, r.seg_id_b, r.variable, r.kind)
        assert sorted(map(key, original.races)) == sorted(map(key, reloaded.races))

    def test_loaded_record_with_policy(self):
        from repro.compiler import EBlockPolicy

        compiled = compile_program(
            nested_calls(), policy=EBlockPolicy(loop_block_min_stmts=1)
        )
        record = Machine(compiled, seed=0, mode="logged").run()
        loaded = round_trip(record)
        assert loaded.compiled.policy == compiled.policy
        session = PPDSession(loaded)
        session.start()
        assert session.graph.nodes
