"""Record naming: the replay cache keys a record by its persist
envelope's content digest, computed once per record.

``record_to_json`` (and so ``save_record``) stashes the digest it
computes and ``record_from_json`` (and so ``load_record``) the digest it
has just verified, so a debugging session over a saved or loaded record
starts without serialising it again.  A record that was never saved or
loaded is named by one body build on first use.
"""

import json

import pytest

from repro import Machine, PPDSession, compile_program
from repro.perf import ReplayCache, record_digest
from repro.runtime import persist
from repro.runtime.persist import (
    RecordDigestError,
    load_record,
    record_from_json,
    record_to_json,
    save_record,
)
from repro.workloads import fig61_program


def fresh_record():
    return Machine(compile_program(fig61_program()), seed=1, mode="logged").run()


@pytest.fixture()
def body_builds(monkeypatch):
    """Counts calls to the persist body builder (one per serialisation)."""
    calls = []
    build = persist._record_body

    def counting(record):
        calls.append(record)
        return build(record)

    monkeypatch.setattr(persist, "_record_body", counting)
    return calls


def envelope_digest(record):
    return json.loads(record_to_json(record))["digest"][:24]


class TestNameIsTheEnvelopeDigest:
    def test_fresh_record(self):
        record = fresh_record()
        name = record_digest(record)  # named before anything serialises it
        assert name == envelope_digest(fresh_record())
        assert name == envelope_digest(record)

    def test_after_save_record(self, tmp_path):
        record = fresh_record()
        save_record(record, str(tmp_path / "run.ppd.json"))
        assert record_digest(record) == envelope_digest(fresh_record())

    def test_after_load_record(self, tmp_path):
        path = str(tmp_path / "run.ppd.json")
        save_record(fresh_record(), path)
        loaded = load_record(path)
        assert record_digest(loaded) == envelope_digest(fresh_record())

    def test_after_record_from_json(self):
        loaded = record_from_json(record_to_json(fresh_record()))
        assert record_digest(loaded) == envelope_digest(fresh_record())

    def test_name_is_computed_once(self, body_builds):
        record = fresh_record()
        first = record_digest(record)
        assert record_digest(record) == first
        assert len(body_builds) == 1


class TestSessionStartSerialisesNothing:
    @staticmethod
    def start(record):
        PPDSession(record, cache=ReplayCache()).start()

    def test_fresh_record_is_serialised_once(self, body_builds):
        record = fresh_record()
        self.start(record)
        assert body_builds == [record]
        self.start(record)  # a second session reuses the name
        assert body_builds == [record]

    def test_saved_record(self, tmp_path, body_builds):
        record = fresh_record()
        save_record(record, str(tmp_path / "run.ppd.json"))
        del body_builds[:]
        self.start(record)
        assert body_builds == []

    def test_loaded_record(self, tmp_path, body_builds):
        path = str(tmp_path / "run.ppd.json")
        save_record(fresh_record(), path)
        loaded = load_record(path)
        del body_builds[:]
        self.start(loaded)
        assert body_builds == []

    def test_record_from_json(self, body_builds):
        text = record_to_json(fresh_record())
        loaded = record_from_json(text)
        del body_builds[:]
        self.start(loaded)
        assert body_builds == []


class TestUnverifiedDocuments:
    def test_legacy_document_is_named_lazily(self, body_builds):
        record = fresh_record()
        body = json.loads(record_to_json(record))
        del body["digest"]  # written before the digest entered the envelope
        loaded = record_from_json(json.dumps(body))
        del body_builds[:]
        assert record_digest(loaded) == record_digest(record)
        assert body_builds == [loaded]

    def test_tampered_document_leaves_no_name(self, monkeypatch):
        """The digest is checked before the source is compiled, so a
        tampered document never becomes a record that could carry its
        claimed name."""
        text = record_to_json(fresh_record())
        body = json.loads(text)
        body["seed"] += 1
        compiled = []
        monkeypatch.setattr(persist, "compile_program", lambda *a, **k: compiled.append(a))
        with pytest.raises(RecordDigestError):
            record_from_json(json.dumps(body))
        assert compiled == []
