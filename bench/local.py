"""The local workloads: one user drives the paper's pipeline in process.

One iteration is what a ``ppd`` user waits on, in order: compile the
program (``setup``), record a logged run (``record``), open a debugging
session and ask the first question (``first_answer``), work through a
fixed follow-up script (``session``), and later reload the saved record
for a postmortem (``reload``).  A traced iteration adds the layer calls
that no end-to-end step makes on its own: VM lowering, interval
expansion, serial and pooled replay, and ``ppd replay``.

Only public entry points are called, with no ``engine=``, ``fastpath=``
or ``jobs=`` argument, so the benchmark measures the defaults users get.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import EmulationPackage, Machine, compile_program, parse
from repro.core.cli import PPDCommandLine
from repro.core.cli import main as ppd_main
from repro.core.controller import PPDSession
from repro.core.emulation import interval_indexes
from repro.perf import ReplayCache, ReplayPool
from repro.runtime.persist import load_record, record_to_json, save_record
from repro.workloads.mpi import ring_allreduce
from repro.workloads.programs import bank_race, buggy_average, fib_recursive, producer_consumer

from harness import E2E_LAYER, CheckFailed, Ops, Recorder

#: Span name of each debugger command; commands not listed are ``core.query``.
COMMAND_SPANS = {
    "why": "core.flowback",
    "expand": "core.expand",
    "races": "core.races",
    "localize": "analysis.localize",
}

#: Intervals a traced iteration expands through ``PPDSession.expand_interval``.
EXPAND_INTERVALS = 8

_FAILED_OUTPUT = ("error:", "unknown command", "usage:", "no assignment to")


def _races_all_on(output: str, expect: str) -> bool:
    lines = output.splitlines()
    head = re.fullmatch(r"(\d+) race\(s\) detected:", lines[0]) if lines else None
    return bool(head) and int(head.group(1)) > 0 and all(expect in line for line in lines[1:])


def _contains(output: str, expect: str) -> bool:
    return expect in output


def _top_suspect(output: str, expect: str) -> bool:
    top = [line.strip() for line in output.splitlines() if line.strip().startswith("1. ")]
    return bool(top) and top[0].startswith(expect)


@dataclass(frozen=True)
class LocalWorkload:
    """One program and the questions a user asks about it.

    ``program(seed)`` returns the source and the parameters drawn from
    the seed; ``expect``, ``first`` and ``followup`` are formatted with
    those parameters.  ``check(first answer, expected)`` decides whether
    the first answer is right.  ``why`` is the flowback question the
    served script asks about the same program.
    """

    program: Callable[[int], tuple[str, dict]]
    first: str
    expect: str
    check: Callable[[str, str], bool]
    followup: tuple[str, ...]
    why: str


def _spmd_program(seed: int) -> tuple[str, dict]:
    deviant = random.Random(seed).randrange(32)
    return ring_allreduce(32, deviant=deviant), {"deviant": deviant, "pid": deviant + 1}


WORKLOADS: dict[str, LocalWorkload] = {
    # 33 processes, a context switch on almost every step, ~500 races:
    # stresses the scheduler loop and the race scan.
    "race_hunt": LocalWorkload(
        program=lambda seed: (bank_race(32, 75), {}),
        first="races",
        expect="on 'balance'",
        check=_races_all_on,
        followup=("where", "why ack", "history balance", "candidates balance",
                  "localize", "stats"),
        why="why ack",
    ),
    # One process, ~2,000 nested e-block intervals: stresses dispatch,
    # logging, interval indexing, replay and the dynamic graph.
    "deep_flowback": LocalWorkload(
        program=lambda seed: (fib_recursive(15), {}),
        first="why r",
        expect="fib() = 610",
        check=_contains,
        followup=("expandable", "expand @next") * 5 + ("why r", "races", "localize", "stats"),
        why="why r",
    ),
    # ~2,400 sync nodes across 33 processes and a large generated
    # program: stresses compile, the parallel graph, localize and persist.
    "spmd_localize": LocalWorkload(
        program=_spmd_program,
        first="localize",
        expect="1. P{pid} (rank{deviant})",
        check=_top_suspect,
        followup=("localize diff {pid}", "races", "where", "why total", "stats"),
        why="why total",
    ),
}

#: The served workload's traffic mix; its traced run also drives these
#: programs through the local layer calls.
MIX: dict[str, LocalWorkload] = {
    "buggy_average": LocalWorkload(
        program=lambda seed: (buggy_average(), {}),
        first="why average",
        expect="average s9 = 0",
        check=_contains,
        followup=("where", "races", "localize", "expandable"),
        why="why average",
    ),
    "bank_race": LocalWorkload(
        program=lambda seed: (bank_race(4, 50), {}),
        first="races",
        expect="on 'balance'",
        check=_races_all_on,
        followup=("where", "why ack", "localize", "expandable"),
        why="why ack",
    ),
    "producer_consumer": LocalWorkload(
        program=lambda seed: (producer_consumer(50, 2), {}),
        first="why a",
        expect="a s16 = ",
        check=_contains,
        followup=("where", "races", "localize", "expandable"),
        why="why a",
    ),
}


class Script:
    """Runs debugger commands against one session, timing each.

    ``expand @next`` expands the first node of the latest ``expandable``
    listing newer than the last expansion, which walks down a recursion.
    """

    def __init__(self, rec: Recorder, cli: PPDCommandLine, ops: Ops) -> None:
        self.rec = rec
        self.cli = cli
        self.ops = ops
        self._listed: list[int] = []
        self._last_expanded = -1
        self.races_found = 0

    def run(self, line: str) -> str:
        if line == "expand @next":
            newer = [uid for uid in self._listed if uid > self._last_expanded]
            if not newer:
                raise CheckFailed("expand @next: nothing newer to expand")
            self._last_expanded = newer[0]
            line = f"expand {newer[0]}"
        verb = line.split()[0]
        with self.rec.span(COMMAND_SPANS.get(verb, "core.query"), "core") as timing:
            output = self.ops.run(self.cli.execute, line)
        self.rec.add("query", timing.seconds)
        if output.startswith(_FAILED_OUTPUT):
            raise CheckFailed(f"{line!r} answered {output.splitlines()[0]!r}")
        if verb == "expandable":
            self._listed = [int(m) for m in re.findall(r"^#(\d+):", output, re.M)]
        if verb == "races" and not self.races_found:
            self.races_found = len(output.splitlines()) - 1
        return output


def iteration(
    w: LocalWorkload, rec: Recorder, ops: Ops, seed: int, workdir: Path,
    traced: bool = False, checked: bool = False,
) -> dict[str, int]:
    """One pass of the pipeline; returns the counts it observed.

    Every iteration checks the first answer.  A ``checked`` or traced
    iteration also checks that a plain run prints what the logged run
    printed and that the reloaded record re-serialises byte-identically;
    timed iterations skip those two, which would cost more than the
    steps they check.
    """
    checked = checked or traced
    source, params = w.program(seed)
    with rec.span("setup", E2E_LAYER):
        with rec.span("lang.parse", "lang"):
            tree = ops.run(parse, source)
        with rec.span("compiler.compile", "compiler"):
            compiled = ops.run(compile_program, tree)
    with rec.span("record", E2E_LAYER):
        with rec.span("runtime.logged_run", "runtime"):
            record = ops.run(Machine(compiled, seed=seed).run)
    if checked:
        with rec.span("runtime.plain", "runtime"):
            plain = ops.run(Machine(compiled, seed=seed, mode="plain").run)
        ops.check(plain.output == record.output, "logged output differs from the plain run")
    path = workdir / f"record-{seed}.ppd.json"
    with rec.span("persist.save", "persist"):
        ops.run(save_record, record, str(path))

    with rec.span("first_answer", E2E_LAYER) as first:
        with rec.span("core.session_init", "core"):
            cli = ops.run(PPDCommandLine, record, autostart=False, cache=ReplayCache())
        with rec.span("core.start", "core"):
            ops.run(cli.session.start)
        script = Script(rec, cli, ops)
        answer = script.run(w.first.format(**params))
    expect = w.expect.format(**params)
    ops.check(w.check(answer, expect), f"{w.first!r} answered {answer[:80]!r}, expected {expect!r}")
    with rec.span("session", E2E_LAYER) as session:
        for line in w.followup:
            script.run(line.format(**params))
    rec.add("script", first.seconds + session.seconds)

    with rec.span("reload", E2E_LAYER):
        with rec.span("persist.load", "persist"):
            loaded = ops.run(load_record, str(path))
    if checked:
        ops.check(record_to_json(loaded) == path.read_text(),
                  "reloaded record re-serialises differently")

    counts = {
        "runtime.steps": record.total_steps,
        "runtime.context_switches": record.context_switches,
        "runtime.sync_events": len(record.history.nodes),
        "runtime.log_bytes": record.log_bytes(),
        "persist.bytes": path.stat().st_size,
        "core.races_found": script.races_found,
        "core.events_generated": cli.session.events_generated,
        "core.replays": cli.session.replay_count(),
    }
    if traced:
        counts.update(_layer_calls(rec, ops, tree, record, path))
    path.unlink()
    return counts


def _layer_calls(rec: Recorder, ops: Ops, tree, record, path: Path) -> dict[str, int]:
    """The traced-only layer calls of one iteration; returns pool counts."""
    lowered = compile_program(tree)
    with rec.span("vm.lower", "vm"):
        code = lowered.vm_code()
        for name in tree.proc_names:
            ops.run(code.proc, name, fast=True)

    requests = [
        (pid, interval_id)
        for pid, index in sorted(interval_indexes(record).items())
        for interval_id in sorted(index)
    ]
    session = PPDSession(record, cache=ReplayCache())
    for pid, interval_id in requests[:EXPAND_INTERVALS]:
        with rec.span("core.expand", "core"):
            ops.run(session.expand_interval, pid, interval_id)

    package = EmulationPackage(record)
    with rec.span("perf.serial_replay", "perf"):
        events = sum(
            ops.run(package.replay, pid, interval_id, uid_base=0).event_count
            for pid, interval_id in requests
        )
    with ReplayPool(record) as pool:
        with rec.span("perf.pooled_replay", "perf"):
            ops.run(pool.replay_batch, requests)
        with rec.span("perf.warm_replay", "perf"):
            ops.run(pool.replay_batch, requests)
        info = pool.describe()

    out = io.StringIO()
    with rec.span("perf.replay_cli", "perf"):
        with contextlib.redirect_stdout(out):
            status = ops.run(ppd_main, ["replay", str(path)])
    replayed = sum(int(n) for n in re.findall(r": (\d+) events in ", out.getvalue()))
    ops.check(status == 0 and replayed == events,
              f"ppd replay regenerated {replayed} events, serial replay {events}")
    return {"perf.chunks": info["chunks"], "perf.bytes_shipped": info["bytes_shipped"]}
