"""Golden schedules: the same seed must keep picking the same processes.

Every value in ``schedule_golden.json`` was produced by the scheduler as it
stood when the table was written.  A logged run is pinned by its record
digest in record format 2 (:func:`tests.oracle.persist_v2.record_digest_v2`,
the name :func:`repro.perf.cache.record_digest` gave a record before format
3; taken over sorted keys, so ``PYTHONHASHSEED`` cannot move it); a plain run
by its output and its step, context-switch and preemption totals.  A change
of the saved layout alone moves no pin.  A change that reorders picks, even
one that keeps every run correct, changes some of these values.  Neither
the VM-vs-oracle parity suite (both executors share ``Machine.run``) nor
the counter gates (20% tolerance) would notice.

Each case runs with ``PPD_VM_FASTPATH`` set to 1 and to 0 against the
same entry.  The variable switched the VM fast path, which is deleted;
an environment that still exports it must get the same records.

Regenerate only when a schedule change is intended::

    PYTHONPATH=src python -m tests.runtime.test_schedule_golden --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Optional

import pytest

from repro import Machine, compile_program
from repro.workloads import (
    bank_race,
    dining_philosophers,
    master_worker,
    pipeline,
    producer_consumer,
    ring_allreduce,
    rpc_server,
)
from tests.oracle.persist_v2 import record_digest_v2

GOLDEN_PATH = Path(__file__).with_name("schedule_golden.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Each leg sets the deleted fast path's variable (see the module docstring).
FASTPATH_ENV = pytest.mark.parametrize("fastpath", ["1", "0"], ids=["fastpath", "no-fastpath"])

SEEDS = range(4)
QUANTA = (1, 3)

PROGRAMS = {
    "bank_race": bank_race(),
    "producer_consumer": producer_consumer(),
    "dining_philosophers": dining_philosophers(3),
    "rpc_server": rpc_server(),
    "pipeline": pipeline(),
    "ring_allreduce": ring_allreduce(8),
    "master_worker": master_worker(8),
    **{f"examples/{path.name}": path.read_text() for path in sorted(EXAMPLES.glob("*.pcl"))},
}

#: key -> (program, seed, quantum, text of the breakpoint statement or None)
HALTED = {
    "breakpoint/producer_consumer/5/2": ("producer_consumer", 5, 2, "consumed = total"),
    "assert/bank_race/6/2": ("bank_race", 6, 2, None),
}


@functools.lru_cache(maxsize=None)
def _compiled(name: str):
    return compile_program(PROGRAMS[name])


def _breakpoints(name: str, text: Optional[str]) -> set[str]:
    """The label of the first statement of *name* whose text contains *text*."""
    if text is None:
        return set()
    database = _compiled(name).database
    return {
        next(
            label
            for label, node in database.stmt_by_label.items()
            if text in database.statement_text(node)
        )
    }


def _run(name, seed, quantum, mode="logged", break_at=None):
    return Machine(
        _compiled(name),
        seed=seed,
        quantum=quantum,
        mode=mode,
        breakpoints=_breakpoints(name, break_at),
    ).run()


def _fingerprint(name, seed, quantum, break_at=None) -> dict:
    """The logged run's digest plus the plain run's schedule summary."""
    logged = _run(name, seed, quantum, "logged", break_at)
    plain = _run(name, seed, quantum, "plain", break_at)
    return {
        "digest": record_digest_v2(logged),
        "plain": [
            [list(line) for line in plain.output],
            plain.total_steps,
            plain.context_switches,
            plain.preemptions,
        ],
    }


def _program_table(name: str) -> dict[str, dict]:
    return {
        f"{name}/{seed}/{quantum}": _fingerprint(name, seed, quantum)
        for seed in SEEDS
        for quantum in QUANTA
    }


def _halted_table() -> dict[str, dict]:
    return {key: _fingerprint(*case) for key, case in HALTED.items()}


def build_table() -> dict[str, dict]:
    table = {}
    for name in PROGRAMS:
        table.update(_program_table(name))
    table.update(_halted_table())
    return table


@functools.lru_cache(maxsize=None)
def _golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches_golden(actual: dict[str, dict]) -> None:
    golden = _golden()
    assert actual == {key: golden.get(key) for key in actual}


@FASTPATH_ENV
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_schedule_matches_golden(name, fastpath, monkeypatch):
    monkeypatch.setenv("PPD_VM_FASTPATH", fastpath)
    _assert_matches_golden(_program_table(name))


@FASTPATH_ENV
def test_halted_runs_match_golden(fastpath, monkeypatch):
    monkeypatch.setenv("PPD_VM_FASTPATH", fastpath)
    _assert_matches_golden(_halted_table())


def test_golden_pins_every_stop_reason():
    """The table holds exactly the cases above, and among them deadlocks,
    assert failures and a breakpoint halt."""
    expected = {f"{n}/{s}/{q}" for n in PROGRAMS for s in SEEDS for q in QUANTA}
    assert set(_golden()) == expected | set(HALTED)
    assert any(
        _run("dining_philosophers", seed, quantum).deadlock is not None
        for seed in SEEDS
        for quantum in QUANTA
    )
    name, seed, quantum, _ = HALTED["assert/bank_race/6/2"]
    assert _run(name, seed, quantum).failure.kind == "assert"
    name, seed, quantum, text = HALTED["breakpoint/producer_consumer/5/2"]
    assert _run(name, seed, quantum, break_at=text).breakpoint_hit is not None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.runtime.test_schedule_golden --write")
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(build_table().items())]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")  # one case a line
    print(f"wrote {GOLDEN_PATH}")
