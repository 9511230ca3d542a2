"""The machine's run queue is exactly its READY processes, in pid order.

``Machine.run`` picks from the queue without rebuilding it, so every
state transition must keep it in step: spawn appends, block and exit and
failure remove, wake inserts by pid.  These tests run a machine whose
executors wrap each process's generator and compare, before every step,
the queue with the rebuild it replaced.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, compile_program
from repro.runtime import ProcState
from repro.runtime.process import Process
from repro.workloads import (
    bank_race,
    bank_safe,
    dining_philosophers,
    master_worker,
    pipeline,
    producer_consumer,
    ring_allreduce,
    rpc_server,
)
from tests.runtime.test_schedule_golden import FASTPATH_ENV
from tests.test_fuzz_parallel import parallel_programs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

SYNC_CHANNEL = """
chan c[0];
shared int mark;
proc sender() { send(c, 5); mark = 1; }
proc main() {
    spawn sender();
    spawn sender();
    print(recv(c), recv(c));
    join();
}
"""

CHILD_RUNTIME_ERROR = """
shared int zero;
proc divider(int n) { print(n / zero); }
proc main() {
    spawn divider(1);
    spawn divider(2);
    join();
}
"""

PROGRAMS = {
    "bank_race": bank_race(3, 4),  # fails its assert on every seed used
    "bank_safe": bank_safe(3, 3),
    "producer_consumer": producer_consumer(6, 1),
    "pipeline": pipeline(3, 4),
    "sync_channel": SYNC_CHANNEL,
    "rpc_server": rpc_server(3, 2),
    "dining_philosophers": dining_philosophers(3),
    "ring_allreduce": ring_allreduce(6),
    "master_worker": master_worker(4),
    "child_runtime_error": CHILD_RUNTIME_ERROR,
    **{path.name: path.read_text() for path in sorted(EXAMPLES.glob("*.pcl"))},
}


def _ready(machine: Machine) -> list[Process]:
    return [p for p in machine.processes.values() if p.state is ProcState.READY]


class _CheckedMachine(Machine):
    """Checks the run-queue invariant before every step it runs."""

    def __init__(self, compiled, **options) -> None:
        super().__init__(compiled, **options)
        self.queue = self.run_queue
        self.checks = 0

    def _new_executor(self, process: Process):
        executor = super()._new_executor(process)

        def run_process(procdef, args):
            return self.checked_steps(process, executor.run_process(procdef, args))

        return SimpleNamespace(run_process=run_process)

    def checked_steps(self, process: Process, steps):
        """Resume *steps* once per scheduler step, checking first."""
        try:
            while True:
                self.checks += 1
                expected = _ready(self)
                queue = self.run_queue
                assert queue is self.queue
                assert process.run_queue is queue
                assert len(queue) == len(expected)
                assert all(got is want for got, want in zip(queue, expected))
                assert any(entry is process for entry in queue)
                next(steps)
                yield
        except StopIteration:
            return
        finally:
            steps.close()


def _checked_run(compiled, **options):
    """Run with every step checking the run-queue invariant."""
    machine = _CheckedMachine(compiled, **options)
    record = machine.run()
    assert machine.checks > 0
    # Whatever stopped the run, the queue still matches the states.
    assert machine.run_queue == _ready(machine)
    return record


@FASTPATH_ENV
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_queue_matches_ready_processes(name, fastpath, monkeypatch):
    monkeypatch.setenv("PPD_VM_FASTPATH", fastpath)
    compiled = compile_program(PROGRAMS[name])
    for seed in range(4):
        for quantum in (1, 3):
            _checked_run(compiled, seed=seed, quantum=quantum)


def test_every_stop_reason_is_covered():
    def records(name):
        compiled = compile_program(PROGRAMS[name])
        return [_checked_run(compiled, seed=seed) for seed in range(4)]

    assert any(r.deadlock is not None for r in records("dining_philosophers"))
    assert all(r.failure.kind == "assert" for r in records("bank_race"))
    assert all(r.failure.kind == "runtime" for r in records("child_runtime_error"))


def test_breakpoint_halt_keeps_the_invariant():
    compiled = compile_program(bank_safe(3, 5))
    database = compiled.database
    target = next(
        label
        for label, node in database.stmt_by_label.items()
        if "balance = (old + 1)" in database.statement_text(node)
    )
    record = _checked_run(compiled, seed=1, breakpoints={target})
    assert record.breakpoint_hit is not None


@given(parallel_programs(), st.integers(0, 25), st.sampled_from([1, 2, 5]))
@settings(max_examples=30, deadline=None)
def test_queue_invariant_on_fuzzed_programs(case, seed, quantum):
    source, _ = case
    for mode in ("plain", "logged"):
        _checked_run(compile_program(source), seed=seed, quantum=quantum, mode=mode)


def test_standalone_process_blocks_and_wakes():
    """A process outside any machine (interval replay builds these) has no
    queue to keep, and its state transitions still work."""
    process = Process(pid=3, proc_name="p", parent=None)
    assert process.run_queue is None
    process.block("recv(c)", 7)
    assert process.state is ProcState.BLOCKED
    assert (process.block_reason, process.blocked_on_node) == ("recv(c)", 7)
    process.wake(11, value="msg")
    assert process.state is ProcState.READY
    assert process.take_wakeup() == ([11], "msg")
    process.leave_ready(ProcState.DONE)
    assert process.state is ProcState.DONE


def test_wake_inserts_in_pid_order():
    queue: list[Process] = []
    processes = [Process(pid=pid, proc_name="p", parent=None) for pid in range(5)]
    for process in processes:
        process.run_queue = queue
        queue.append(process)
    for pid in (3, 0, 4, 1):
        processes[pid].block("join")
    assert [p.pid for p in queue] == [2]
    for pid in (4, 0, 3):
        processes[pid].wake(0)
    assert [p.pid for p in queue] == [0, 2, 3, 4]
    processes[0].wake(0)  # already READY: no second entry
    processes[1].leave_ready(ProcState.DONE)  # not READY: nothing to remove
    assert [p.pid for p in queue] == [0, 2, 3, 4]
