"""Closing a suspended process logs nothing.

A run that ends in a deadlock, a failure or a breakpoint leaves other
processes suspended inside their executor generators.  Each such
generator sits in a reference cycle with its machine, so the cyclic
garbage collector closes it some time later, raising ``GeneratorExit``
at its suspension point.  That close must not run the process's block
exit hooks: a postlog written then would change a record already handed
out, and an accept's exit, which yields, would make Python report
"generator ignored GeneratorExit".
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import repro
from repro import Machine, compile_program
from repro.compiler import EBlockPolicy
from repro.runtime.persist import record_to_json

from tests.oracle import oracle

SRC = str(Path(repro.__file__).resolve().parents[1])

#: P1 blocks in P(s) inside its loop e-block's second iteration.
WAITER = """
sem s = 0;
proc waiter() { int i = 0; while (i < 3) { i = i + 1; P(s); } }
proc main() { spawn waiter(); join(); }
"""

#: The server blocks in its inner accept while the outer one is open.
NESTED_ACCEPT = """
entry E;
proc server() { accept E() { accept E() { reply 1; } } }
proc main() { int x = 0; spawn server(); x = call E(); }
"""


@pytest.mark.parametrize("engine", ["vm", "oracle"])
def test_collecting_a_deadlocked_run_leaves_its_record_alone(engine):
    compiled = compile_program(WAITER, policy=EBlockPolicy(loop_block_min_stmts=1))
    gc.disable()
    try:
        with oracle() if engine == "oracle" else nullcontext():
            record = Machine(compiled).run()
        before = record_to_json(record)
    finally:
        gc.enable()
    assert record.deadlock is not None
    gc.collect()
    assert record_to_json(record) == before


def test_collecting_a_run_blocked_in_a_nested_accept_prints_nothing():
    code = (
        "import gc\n"
        "from repro import Machine, compile_program\n"
        f"record = Machine(compile_program({NESTED_ACCEPT!r})).run()\n"
        "assert record.deadlock is not None\n"
        "gc.collect()\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
