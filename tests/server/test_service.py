"""Debug-service integration tests over real TCP sockets.

The acceptance bar: a scripted client holds concurrent sessions against
one daemon and every proxied command returns output byte-identical to
the same command on an in-process :class:`PPDCommandLine` over the same
record — through LRU eviction and rehydration.
"""

import threading
import time

import pytest

from repro import Machine, compile_program, obs
from repro.core import PPDCommandLine
from repro.runtime import save_record
from repro.server import DebugClient, DebugService, ServerError
from repro.workloads import bank_race, buggy_average, nested_calls

AVG_INPUTS = [10, 20, 30, 40, 50]


def make_service(**kwargs):
    kwargs.setdefault("request_timeout_s", 30.0)
    service = DebugService(port=0, **kwargs)
    service.start()
    return service


def make_client(service, **kwargs):
    return DebugClient.connect(f"{service.host}:{service.port}", **kwargs)


def local_cli(source, seed=0, inputs=None):
    compiled = compile_program(source)
    record = Machine(compiled, seed=seed, mode="logged", inputs=inputs).run()
    return PPDCommandLine(record)


@pytest.fixture()
def service(tmp_path):
    svc = make_service(spool_dir=str(tmp_path / "spool"))
    yield svc
    svc.shutdown()


class TestByteIdentical:
    """Same record, same commands, local vs proxied — identical text."""

    SCRIPT = [
        "where",
        "output",
        "why average",
        "races",
        "stats",
        "history SV",
        "restore 9999",
        "parallel",
    ]

    def test_scripted_transcript_matches_local(self, service):
        local = local_cli(buggy_average(5), seed=0, inputs=AVG_INPUTS)
        with make_client(service) as client:
            session = client.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
            for command in self.SCRIPT:
                assert session.execute(command) == local.execute(command), command
            # uid-addressed verbs: discover the uid the same way both sides.
            listing = session.execute("expandable")
            assert listing == local.execute("expandable")
            uid = int(listing.split(":")[0].lstrip("#"))
            for command in (f"expand {uid}", "why s", f"slice {uid}", "stats"):
                assert session.execute(command) == local.execute(command), command
            session.close()

    def test_empty_line_is_empty_both_sides(self, service):
        with make_client(service) as client:
            session = client.open_program(nested_calls(), seed=0)
            assert session.execute("") == ""
            session.close()


class TestLintVerb:
    """The ``lint``/``candidates`` verbs round-trip the same diagnostics a
    local session produces — text and JSON."""

    def test_lint_matches_local(self, service):
        local = local_cli(bank_race(2, 2), seed=3)
        with make_client(service) as client:
            session = client.open_program(bank_race(2, 2), seed=3)
            for command in ("lint", "lint json", "lint error", "candidates",
                            "candidates balance"):
                assert session.execute(command) == local.execute(command), command
            session.close()

    def test_lint_json_is_parseable_over_the_wire(self, service):
        import json as _json

        with make_client(service) as client:
            session = client.open_program(bank_race(2, 2), seed=3)
            payload = _json.loads(session.execute("lint json"))
            assert any(entry["code"] == "race" for entry in payload)
            session.close()


class TestConcurrency:
    def test_four_clients_two_sessions(self, service):
        """≥4 threaded clients hammering 2 shared sessions: every reply
        must match the local transcript for that session's record."""
        with make_client(service) as setup:
            avg = setup.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
            race = setup.open_program(bank_race(2, 2), seed=3)

        local_avg = local_cli(buggy_average(5), seed=0, inputs=AVG_INPUTS)
        local_race = local_cli(bank_race(2, 2), seed=3)
        expected = {
            avg.sid: {
                cmd: local_avg.execute(cmd)
                for cmd in ("where", "output", "why average", "races", "stats")
            },
            race.sid: {
                cmd: local_race.execute(cmd)
                for cmd in ("where", "output", "why balance", "races", "stats")
            },
        }

        mismatches = []
        errors = []

        def hammer(sid, rounds=6):
            try:
                with make_client(service) as client:
                    for _ in range(rounds):
                        for command, want in expected[sid].items():
                            got = client.execute(sid, command)
                            if got != want:
                                mismatches.append((sid, command, got))
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(sid,))
            for sid in (avg.sid, race.sid)
            for _ in range(3)  # 6 clients total, 3 per session
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert not mismatches, mismatches[:3]

    def test_request_counters_add_up(self, tmp_path):
        with obs.capture() as registry:
            service = make_service(spool_dir=str(tmp_path))
            try:
                with make_client(service) as client:
                    session = client.open_program(nested_calls(), seed=0)
                    for _ in range(5):
                        session.execute("where")
                    session.close()
            finally:
                service.shutdown()
        assert registry.value("server.requests", verb="where") == 5
        assert registry.value("server.requests", verb="open") == 1
        assert registry.value("server.request_errors") == 0
        assert registry.value("server.bytes_in") > 0
        assert registry.value("server.bytes_out") > 0


class TestEvictionOverTheWire:
    def test_eviction_is_invisible_to_clients(self, tmp_path):
        service = make_service(max_sessions=1, spool_dir=str(tmp_path))
        try:
            with make_client(service) as client:
                first = client.open_program(bank_race(2, 2), seed=3)
                commands = ["why balance", "races", "stats", "where"]
                before = {cmd: first.execute(cmd) for cmd in commands}

                second = client.open_program(nested_calls(), seed=0)  # evicts first
                infos = {i["session"]: i for i in client.sessions()}
                assert infos[first.sid]["live"] is False
                assert infos[second.sid]["live"] is True

                after = {cmd: first.execute(cmd) for cmd in commands}
                assert before == after
        finally:
            service.shutdown()


class TestStructuredErrors:
    def test_unknown_session(self, service):
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.execute("s999", "where")
            assert excinfo.value.code == "unknown-session"
            assert "Traceback" not in excinfo.value.message

    def test_unknown_verb(self, service):
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("frobnicate", session="s1")
            assert excinfo.value.code == "unknown-verb"

    def test_corrupt_record_upload(self, service):
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.open_record(json_text="{definitely not a record")
            assert excinfo.value.code == "persist-error"
            assert "Traceback" not in excinfo.value.message

    def test_tampered_record_upload(self, service):
        """One source byte changed, digest not re-signed: the digest check
        answers, before the source is compiled."""
        from repro.runtime import record_to_json

        text = record_to_json(
            Machine(compile_program(nested_calls()), seed=0, mode="logged").run()
        )
        index = text.index("proc", text.index('"source":"'))
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.open_record(json_text=text[:index] + "`" + text[index + 1 :])
            assert excinfo.value.code == "persist-error"
            assert "digest" in excinfo.value.message

    def test_open_failed_on_bad_program(self, service):
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.open_program("proc main( { this is not PCL")
            assert excinfo.value.code in ("open-failed", "internal")
            assert "Traceback" not in excinfo.value.message

    @pytest.mark.parametrize(
        "source", ["proc main() { int x = ²; }", 'proc main() { print("abc\\']
    )
    def test_pcl_the_scanner_rejects_is_open_failed(self, service, source):
        """A malformed program is the client's fault: every open of it
        answers ``open-failed``, however often it is sent."""
        with make_client(service) as client:
            for _ in range(5):
                with pytest.raises(ServerError) as excinfo:
                    client.open_program(source)
                assert excinfo.value.code == "open-failed"
                assert "lex error" in excinfo.value.message

    def test_overlong_integer_literal_is_open_failed(self, service):
        source = "proc main() { int x = " + "9" * 5000 + "; }"
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.open_program(source)
            assert excinfo.value.code == "open-failed"
            assert excinfo.value.message.startswith("1:23: parse error: integer literal")

    def test_raw_garbage_gets_error_reply_not_disconnect(self, service):
        import socket

        with socket.create_connection((service.host, service.port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            reply = sock.makefile("rb").readline()
        assert b'"ok":false' in reply
        assert b"bad-json" in reply

    def test_bad_record_path_is_bad_request_and_daemon_keeps_serving(self, service):
        """A non-string ``record_path`` is rejected before ``open()`` can
        treat it as a file descriptor, and the daemon answers afterwards."""
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("open", record_path=3)
            assert excinfo.value.code == "bad-request"
            assert client.ping() == "pong"
            session = client.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
            assert session.execute("output") == local_cli(
                buggy_average(5), inputs=AVG_INPUTS
            ).execute("output")

    def test_protocol_1_request_gets_bad_version_reply(self, service):
        import socket

        from tests.server.test_protocol import V1_REPLY, V1_REQUEST

        with socket.create_connection((service.host, service.port), timeout=10) as sock:
            sock.sendall(V1_REQUEST.encode() + b"\n")
            reply = sock.makefile("rb").readline()
        assert reply.decode() == V1_REPLY + "\n"

    def test_per_request_timeout(self, tmp_path):
        service = make_service(request_timeout_s=0.05, spool_dir=str(tmp_path))
        try:
            original = service.sessions.execute
            service.sessions.execute = lambda sid, line: (time.sleep(0.5), original(sid, line))[1]
            with make_client(service) as client:
                session = client.open_program(nested_calls(), seed=0)
                with pytest.raises(ServerError) as excinfo:
                    session.execute("where")
                assert excinfo.value.code == "timeout"
        finally:
            service.sessions.execute = original
            time.sleep(0.6)  # let the abandoned worker release the session lock
            service.shutdown()


class TestBackpressureAndDrain:
    def test_connection_backpressure(self, tmp_path):
        service = make_service(max_connections=1, spool_dir=str(tmp_path))
        try:
            with make_client(service) as first:
                first.ping()  # ensure the first connection is registered
                refused = make_client(service)
                with pytest.raises((ServerError, ConnectionError)) as excinfo:
                    refused.ping()
                if excinfo.type is ServerError:
                    assert excinfo.value.code == "server-busy"
                refused.close()
                first.ping()  # the accepted connection still works
        finally:
            service.shutdown()

    def test_client_initiated_shutdown_drains(self, tmp_path):
        service = make_service(spool_dir=str(tmp_path))
        with make_client(service) as client:
            assert client.shutdown_server() == "draining"
        service.shutdown()
        assert service._stopped.is_set()
        with pytest.raises(OSError):
            DebugClient.connect(f"{service.host}:{service.port}", timeout=2)

    def test_sessions_closed_after_shutdown(self, tmp_path):
        service = make_service(spool_dir=str(tmp_path))
        with make_client(service) as client:
            client.open_program(nested_calls(), seed=0)
        service.shutdown()
        assert service.sessions.list_info() == []


class TestSaveLoadOverTheWire:
    def test_remote_save_then_open_record_path(self, service, tmp_path):
        path = tmp_path / "snapshot.ppd.json"
        with make_client(service) as client:
            session = client.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
            why = session.execute("why average")
            assert session.execute(f"save {path}") == f"saved record to {path}"
            restored = client.open_record(str(path), upload=False)
            assert restored.execute("why average") == why
            uploaded = client.open_record(str(path))  # client-side read + upload
            assert uploaded.execute("why average") == why


def not_a_record(directory, kind):
    """A file a client names that holds no record: text, or a record cut short."""
    path = directory / f"{kind}.ppd.json"
    if kind == "text":
        path.write_text("meeting notes\n")
    else:
        record = Machine(
            compile_program(buggy_average(5)), seed=0, mode="logged", inputs=AVG_INPUTS
        ).run()
        save_record(record, str(path))
        path.write_text(path.read_text()[:200])
    return path


class TestWireLoadsLeaveFilesAlone:
    """``open`` with ``record_path`` and the ``load`` verb read a file the
    client names.  A bad one gets a typed answer and stays where it was:
    nothing is renamed to ``*.quarantined``."""

    @staticmethod
    def assert_untouched(path, before):
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.quarantined"))

    @pytest.mark.parametrize("kind", ["text", "truncated"])
    def test_open_record_path(self, service, tmp_path, kind):
        path = not_a_record(tmp_path, kind)
        before = path.read_bytes()
        with make_client(service) as client:
            with pytest.raises(ServerError) as excinfo:
                client.open_record(str(path), upload=False)
            assert excinfo.value.code == "persist-error"
            assert client.ping() == "pong"
        self.assert_untouched(path, before)

    @pytest.mark.parametrize("kind", ["text", "truncated"])
    def test_load_verb(self, service, tmp_path, kind):
        path = not_a_record(tmp_path, kind)
        before = path.read_bytes()
        with make_client(service) as client:
            session = client.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
            why = session.execute("why average")
            assert session.execute(f"load {path}").startswith("error: corrupt record:")
            assert session.execute("why average") == why
        self.assert_untouched(path, before)
