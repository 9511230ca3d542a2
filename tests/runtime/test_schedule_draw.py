"""The scheduler loop draws exactly what ``Random.randrange`` would.

``Machine.run`` inlines ``random.Random(seed).randrange(len(ready))``'s
rejection sampling, so every seeded schedule (and every record pinned by
``schedule_golden.json``) depends on that inlined draw agreeing with the
library's.  These tests hold a machine's run queue at *n* READY
processes and compare the loop's picks with ``randrange(n)`` for n in
1..70 and seeds 0..49, on whichever CPython runs them.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro import Machine, compile_program
from repro.runtime import PCLRuntimeError

PROGRAM = compile_program("proc main() { }")

#: steps each run takes before ``max_steps`` stops it
STEPS = 8


class _DrawMachine(Machine):
    """A machine whose run queue holds *ready* processes that never block:
    each process's generator only records that it was resumed."""

    def __init__(self, ready: int, **options) -> None:
        super().__init__(PROGRAM, mode="plain", max_steps=STEPS - 1, **options)
        self.resumed: list[int] = []
        for _ in range(ready - 1):
            process = self._create_process("main", None)
            process.generator = self._steps(process.pid)

    def _new_executor(self, process):
        return SimpleNamespace(run_process=lambda procdef, args: self._steps(process.pid))

    def _steps(self, pid: int):
        while True:
            self.resumed.append(pid)
            yield


def _picks(ready: int, seed: int, quantum: int) -> _DrawMachine:
    machine = _DrawMachine(ready, seed=seed, quantum=quantum)
    with pytest.raises(PCLRuntimeError, match="exceeded"):
        machine.run()
    assert len(machine.resumed) == STEPS
    return machine


def _expected(ready: int, seed: int, quantum: int) -> list[int]:
    rng = random.Random(seed)
    picks = []
    while len(picks) < STEPS:
        # A lone READY process runs without a draw (randrange(1) is 0).
        pick = rng.randrange(ready) if ready > 1 else 0
        picks.extend([pick] * quantum)
    return picks[:STEPS]


@pytest.mark.parametrize("quantum", [1, 3])
def test_picks_follow_randrange(quantum):
    for ready in range(1, 71):
        for seed in range(50):
            machine = _picks(ready, seed, quantum)
            # The queue holds pids 0..ready-1 in order, so a pid is its index.
            assert machine.resumed == _expected(ready, seed, quantum), (ready, seed)


def test_switch_counts_follow_the_picks():
    """Every change of the running process is a context switch, and one
    away from a process still READY is also a preemption; the loop writes
    both back when the run stops, here by raising."""
    for ready in (1, 2, 5, 33, 70):
        for seed in range(50):
            machine = _picks(ready, seed, 1)
            changes = sum(
                1 for before, after in zip(machine.resumed, machine.resumed[1:]) if before != after
            )
            assert machine.context_switches == changes + 1
            assert machine.preemptions == changes
            assert machine.total_steps == STEPS
