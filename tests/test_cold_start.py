"""The ``ppd`` start path loads only what the chosen subcommand runs.

``ppd --help``, ``ppd connect --help`` and a ``ppd serve`` daemon that
has answered ``ping`` and ``list`` must not have imported the debugger's
engine (parser, compiler, VM, runtime, emulation, replay pool); the
daemon imports it when it opens its first session.  Replay runs in
process, so neither a served session nor ``ppd replay`` imports the
process-pool machinery.  Each check reads the module list of ``python -X
importtime`` in a fresh interpreter.  A fresh daemon's first request must
still get its typed reply.
"""

import os
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro import compile_program
from repro.core import PPDCommandLine
from repro.runtime import Machine, record_to_json, run_program, save_record
from repro.server import DebugClient, ServerError
from repro.workloads import bank_race, buggy_average

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules (or packages) that belong to the engine, not the start path.
ENGINE = (
    "repro.runtime.machine",
    "repro.runtime.persist",
    "repro.compiler.compile",
    "repro.core.controller",
    "repro.vm.executor",
    "repro.perf.pool",
    "multiprocessing",
)

#: The process-pool replay, which sessions and ``ppd replay`` do not use.
POOL = (
    "repro.perf.pool",
    "repro.perf.shm",
    "concurrent.futures.process",
    "multiprocessing",
)

AVG_INPUTS = [10, 20, 30, 40, 50]


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _imported(stderr: str) -> set:
    """The modules an ``-X importtime`` report names."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def _engine_modules(imported: set, engine: tuple = ENGINE) -> list:
    return sorted(
        name
        for name in imported
        if any(name == root or name.startswith(root + ".") for root in engine)
    )


@contextmanager
def _daemon(tmp_path, *python_flags):
    """A fresh ``python -m repro serve 127.0.0.1:0``; yields its address.
    Shuts it down on exit; its stderr is left in ``tmp_path/stderr``."""
    with open(tmp_path / "stderr", "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, *python_flags, "-m", "repro", "serve", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            env=_env(),
        )
    try:
        match = re.search(r"listening on (\S+)", proc.stdout.readline())
        assert match, "ppd serve did not start"
        yield match.group(1)
        with DebugClient.connect(match.group(1)) as client:
            assert client.shutdown_server() == "draining"
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class TestStartPathImports:
    @pytest.mark.parametrize("argv", [["--help"], ["connect", "--help"]])
    def test_help_loads_no_engine(self, argv):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: ppd")
        imported = _imported(result.stderr)
        assert "repro.ppd" in imported
        assert _engine_modules(imported) == []

    def test_daemon_answers_ping_and_list_without_the_engine(self, tmp_path):
        with _daemon(tmp_path, "-X", "importtime") as addr:
            with DebugClient.connect(addr) as client:
                assert client.ping() == "pong"
                assert client.sessions() == []
        imported = _imported((tmp_path / "stderr").read_text())
        assert "repro.server.sessions" in imported
        assert _engine_modules(imported) == []


class TestReplayImportsNoPool:
    def test_daemon_sessions_import_no_pool(self, tmp_path):
        with _daemon(tmp_path, "-X", "importtime") as addr:
            with DebugClient.connect(addr) as client:
                session = client.open_program(bank_race(2, 2), seed=1)
                for line in ("races", "why balance", "expandable"):
                    assert not session.execute(line).startswith("error:"), line
        imported = _imported((tmp_path / "stderr").read_text())
        assert "repro.core.controller" in imported
        assert _engine_modules(imported, POOL) == []

    def test_ppd_replay_imports_no_pool(self, tmp_path):
        path = tmp_path / "run.ppd.json"
        save_record(run_program(bank_race(2, 2), seed=1), str(path))
        argv = ["replay", str(path), "--cache-dir", str(tmp_path / "cache")]
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "misses=" in result.stdout
        imported = _imported(result.stderr)
        assert "repro.core.emulation" in imported
        assert _engine_modules(imported, POOL) == []


class TestFirstRequestOnAFreshDaemon:
    """The engine loads inside the first request; its reply stays typed."""

    def test_corrupt_upload_is_a_persist_error(self, tmp_path):
        with _daemon(tmp_path) as addr, DebugClient.connect(addr) as client:
            with pytest.raises(ServerError) as raised:
                client.call("open", record_json='{"version": 2, "digest": "00"')
            assert raised.value.code == "persist-error"

    def test_malformed_pcl_is_open_failed(self, tmp_path):
        with _daemon(tmp_path) as addr, DebugClient.connect(addr) as client:
            with pytest.raises(ServerError) as raised:
                client.call("open", program="proc main( {", seed=0)
            assert raised.value.code == "open-failed"

    def test_open_then_why_matches_the_local_transcript(self, tmp_path):
        record = Machine(
            compile_program(buggy_average(5)), seed=0, mode="logged", inputs=AVG_INPUTS
        ).run()
        local = PPDCommandLine(record)
        with _daemon(tmp_path) as addr, DebugClient.connect(addr) as client:
            session = client.open_program(buggy_average(5), seed=0, inputs=AVG_INPUTS)
            assert session.execute("why average") == local.execute("why average")

    def test_first_opens_at_once_all_answer(self, tmp_path):
        """Sessions that open together import the engine one at a time."""
        upload = record_to_json(run_program(bank_race(2, 2), seed=1))
        requests = [
            {"program": buggy_average(5), "seed": 0, "inputs": AVG_INPUTS},
            {"record_json": upload},
            {"program": bank_race(2, 2), "seed": 3},
        ]
        replies = [None] * len(requests)
        with _daemon(tmp_path) as addr:

            def open_one(k):
                with DebugClient.connect(addr) as client:
                    try:
                        replies[k] = client.call("open", **requests[k]).output
                    except ServerError as error:
                        replies[k] = f"{error.code}: {error}"

            threads = [threading.Thread(target=open_one, args=(k,)) for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        assert all(reply.startswith("opened s") for reply in replies), replies


class TestNamesStayBound:
    def test_core_cli_main_is_the_executable(self):
        from repro import ppd
        from repro.core import cli

        assert cli.main is ppd.main

    def test_persist_errors_are_the_runtime_errors(self):
        from repro.runtime import errors, persist

        for name in (
            "PersistError",
            "RecordCorruptError",
            "RecordDigestError",
            "RecordIOError",
            "RecordVersionError",
        ):
            assert getattr(persist, name) is getattr(errors, name), name
            assert getattr(repro.runtime, name) is getattr(errors, name), name
