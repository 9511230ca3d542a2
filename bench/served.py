"""The served workload: ``ppd serve`` under a closed-loop load generator.

The load generator keeps ``CONNECTIONS`` client connections, one per CPU
of the machine the benchmark was defined on.  It works in rounds: take a
reference sample while the daemon is idle, then every connection runs
one scripted session at once, and the next round starts when all have
closed.  A script opens a session, either by uploading a program that
the daemon runs logged or by uploading a saved record, asks the
``SCRIPT`` questions, and closes it.  The mix is the ``local.MIX``
programs x ``SEEDS`` seeds, so after one cycle the daemon's shared
replay cache is warm.  Every reply must equal the transcript a local session gives.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro import Machine, compile_program
from repro.core.cli import PPDCommandLine
from repro.perf import ReplayCache
from repro.runtime.persist import record_to_json
from repro.server import DebugClient, ServerError

from harness import E2E_LAYER, CheckFailed, Ops, Recorder, peak_rss_mb
from local import LocalWorkload

#: Concurrent client connections (the benchmark machine's CPU count).
CONNECTIONS = 2
#: Scheduler seeds per mix program.
SEEDS = 4
#: Questions of one session, between ``open`` and ``close``.
SCRIPT = ("where", "{why}", "races", "localize", "expandable", "stats cache")

_LISTENING = re.compile(r"listening on (\S+)")


@dataclass
class Target:
    """One record the generator opens, with the transcript to expect."""

    label: str
    source: str
    seed: int
    record_json: str
    script: tuple[str, ...]
    expected: dict[str, str]


def target(name: str, w: LocalWorkload, seed: int) -> Target:
    """Run *w* locally and keep the transcript a served session must match."""
    source, params = w.program(seed)
    record = Machine(compile_program(source), seed=seed).run()
    cli = PPDCommandLine(record, cache=ReplayCache())
    script = tuple(line.format(why=w.why.format(**params)) for line in SCRIPT)
    # ``stats cache`` reports process-wide state, so only its shape is checked.
    expected = {line: cli.execute(line) for line in script if line != "stats cache"}
    return Target(f"{name}:{seed}", source, seed, record_to_json(record), script, expected)


class Daemon:
    """One ``python -m repro serve 127.0.0.1:0`` process."""

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.addr = ""

    def start(self, rec: Recorder) -> None:
        """Spawn the daemon and wait until it answers a ``ping``."""
        with rec.span("setup", E2E_LAYER):
            with rec.span("server.spawn", "server"):
                with open(self.log_path, "ab") as log:
                    self.proc = subprocess.Popen(
                        [sys.executable, "-m", "repro", "serve", "127.0.0.1:0"],
                        stdout=subprocess.PIPE,
                        stderr=log,
                        text=True,
                    )
                line = self.proc.stdout.readline()
                match = _LISTENING.search(line)
                if match is None:
                    raise RuntimeError(f"ppd serve did not start: {line!r}")
                self.addr = match.group(1)
            with rec.span("server.ping", "server"):
                with DebugClient.connect(self.addr) as client:
                    if client.ping() != "pong":
                        raise CheckFailed("ping was not answered with pong")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def stop(self) -> None:
        """Ask the daemon to drain, and wait until it has exited."""
        if self.proc is None:
            return
        try:
            with DebugClient.connect(self.addr) as client:
                client.shutdown_server()
            self.proc.wait(timeout=15)
        except (OSError, ServerError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def session(client: DebugClient, rec: Recorder, ops: Ops, t: Target, upload: bool) -> str:
    """One scripted session; returns the ``stats cache`` reply.

    ``record`` (or ``reload``, for an uploaded record) times the
    ``open``; ``first_answer`` times the ``open`` and the first question,
    what a user waits on before the first answer; ``session`` times the
    other questions and the ``close``.  All are grouped by target.
    """
    started = time.perf_counter()
    with rec.span("first_answer", E2E_LAYER, t.label):
        with rec.span("reload" if upload else "record", E2E_LAYER, t.label):
            with rec.span("server.open", "server"):
                if upload:
                    reply = ops.run(client.call, "open", record_json=t.record_json)
                else:
                    reply = ops.run(client.call, "open", program=t.source, seed=t.seed)
        sid = reply.data["session"]
        outputs = [_request(client, rec, ops, sid, t.script[0])]
    ops.check(reply.output == f"opened {sid}", f"open answered {reply.output!r}")
    with rec.span("session", E2E_LAYER, t.label):
        for line in t.script[1:]:
            outputs.append(_request(client, rec, ops, sid, line))
        with rec.span("server.close", "server"):
            reply = ops.run(client.call, "close", session=sid)
    rec.add("script", time.perf_counter() - started, t.label)
    ops.check(reply.output == f"closed {sid}", f"close answered {reply.output!r}")
    for line, output in zip(t.script, outputs):
        if line == "stats cache":
            ops.check(output.startswith("session replays:"), f"stats cache answered {output!r}")
        else:
            ops.check(output == t.expected[line], f"{line!r} answered {output[:80]!r}")
    return outputs[t.script.index("stats cache")]


def _request(client: DebugClient, rec: Recorder, ops: Ops, sid: str, line: str) -> str:
    verb, *args = line.split()
    with rec.span(f"server.{verb}", "server") as timing:
        reply = ops.run(client.call, verb, session=sid, args=args)
    rec.add("query", timing.seconds)
    return reply.output or ""


def server_counters(client: DebugClient, t: Target) -> dict[str, Any]:
    """The daemon's ``server.*`` counters, from ``stats json`` in a session."""
    sid = client.call("open", record_json=t.record_json).data["session"]
    report = json.loads(client.call("stats", session=sid, args=["json"]).output)
    client.call("close", session=sid)
    return report.get("counters", {})


def cache_hit_ratio(stats_cache: str) -> float:
    match = re.search(r"hits=(\d+) misses=(\d+)", stats_cache)
    if match is None:
        raise CheckFailed(f"no shared-cache line in {stats_cache!r}")
    hits, misses = int(match.group(1)), int(match.group(2))
    return hits / (hits + misses)


class Connection(threading.Thread):
    """One client connection running one session per round."""

    def __init__(self, addr: str) -> None:
        super().__init__(daemon=True)
        self.client = DebugClient.connect(addr)
        self.ops = Ops()
        self.last_stats = ""
        self._go = threading.Event()
        self._done = threading.Event()
        self._job: Optional[tuple[Recorder, Target, bool]] = None
        self._closing = False

    def submit(self, rec: Recorder, t: Target, upload: bool) -> None:
        self._job = (rec, t, upload)
        self._done.clear()
        self._go.set()

    def wait(self) -> None:
        self._done.wait()

    def close(self) -> None:
        self._closing = True
        self._go.set()
        if self.ident is not None:
            self.join(timeout=30)
        self.client.close()

    def run(self) -> None:
        while True:
            self._go.wait()
            self._go.clear()
            if self._closing:
                return
            rec, t, upload = self._job
            try:
                self.last_stats = session(self.client, rec, self.ops, t, upload)
            except Exception as error:  # noqa: BLE001 - counted, the load goes on
                self.ops.fail(f"session: {type(error).__name__}: {error}")
            self._done.set()


def run_rounds(
    conns: list[Connection], rec: Recorder, targets: list[Target], reference,
    deadline: float, max_rounds: Optional[int],
) -> int:
    """Closed-loop rounds until *deadline* (or *max_rounds*); returns rounds run.

    Round ``r`` gives connection ``c`` the target ``(2r + c) mod len``.
    Rounds alternate between uploading the program and uploading its
    saved record, with the phase flipped on every cycle over the
    targets, so each target is opened both ways.  Without
    *max_rounds*, the deadline is checked only after whole blocks of
    two cycles, so every target is opened equally often each way and
    the mix of the samples is the same in every run.
    """
    per_cycle = max(1, len(targets) // len(conns))
    rounds = 0
    while True:
        if max_rounds is not None:
            if rounds >= max_rounds:
                return rounds
        elif rounds % (2 * per_cycle) == 0 and time.monotonic() >= deadline:
            return rounds
        rec.begin(rounds, reference.sample())
        upload = (rounds + rounds // per_cycle) % 2 == 1
        for c, conn in enumerate(conns):
            conn.submit(rec, targets[(len(conns) * rounds + c) % len(targets)], upload)
        for conn in conns:
            conn.wait()
        rounds += 1
