"""Record digests of the benchmark programs and of loop and chunk e-blocks.

Each case's logged run at seed 0 is pinned by its record digest in record
format 2 (:func:`tests.oracle.persist_v2.record_digest_v2`, the name
:func:`repro.perf.cache.record_digest` gave a record before format 3), so a
change of the saved layout alone moves no pin.  The first three are the
programs of the benchmark's local workloads (``bench/local.py``).  The
other four run under a policy that makes loop or chunk e-blocks, whose
prelogs and postlogs no other digest covers; the test oracle shares
``Machine``'s logging hooks, so VM-vs-oracle parity cannot catch a change
in what those hooks write.

Regenerate only for an intended record change::

    PYTHONPATH=src python -m tests.runtime.test_record_pins
"""

from __future__ import annotations

import pytest

from repro import Machine, compile_program
from repro.compiler import EBlockPolicy
from repro.workloads import bank_race, compute_heavy, fib_recursive, matrix_sum, ring_allreduce
from tests.oracle.persist_v2 import record_digest_v2

LOOPS = EBlockPolicy(loop_block_min_stmts=1)
CHUNKS = EBlockPolicy(split_proc_min_stmts=4)

#: case -> (program, policy)
CASES = {
    "fib_recursive(15)": (fib_recursive(15), None),
    "bank_race(32, 75)": (bank_race(32, 75), None),
    "ring_allreduce(32, deviant=5)": (ring_allreduce(32, deviant=5), None),
    "matrix_sum(8)/loops": (matrix_sum(8), LOOPS),
    "matrix_sum(8)/chunks": (matrix_sum(8), CHUNKS),
    "compute_heavy(15, 10)/loops": (compute_heavy(15, 10), LOOPS),
    "compute_heavy(15, 10)/chunks": (compute_heavy(15, 10), CHUNKS),
}

PINNED = {
    "fib_recursive(15)": "302a71d626d3b4b11a11bdba",
    "bank_race(32, 75)": "30b43dde802795e790a254a6",
    "ring_allreduce(32, deviant=5)": "7d4c8879c6a72b90faffbe18",
    "matrix_sum(8)/loops": "53c503cc73e1d65a923f23e3",
    "matrix_sum(8)/chunks": "5a37fb9ec0d83d7f38f985a0",
    "compute_heavy(15, 10)/loops": "d9c5a0a3f1381b4a7663920c",
    "compute_heavy(15, 10)/chunks": "fbc04427ac3460681bc0abe9",
}


def _record(case: str):
    source, policy = CASES[case]
    return Machine(compile_program(source, policy=policy), seed=0).run()


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_digest_is_pinned(case):
    assert record_digest_v2(_record(case)) == PINNED[case]


@pytest.mark.parametrize(
    "case,kind",
    [
        ("matrix_sum(8)/loops", "loop"),
        ("matrix_sum(8)/chunks", "chunk"),
        ("compute_heavy(15, 10)/loops", "loop"),
        ("compute_heavy(15, 10)/chunks", "chunk"),
    ],
)
def test_policy_cases_log_their_blocks(case, kind):
    """A policy case pins entries of its block kind only if it logs some."""
    kinds = {
        entry.block_kind
        for log in _record(case).logs.values()
        for entry in log
        if type(entry).__name__ == "Prelog"
    }
    assert kind in kinds


if __name__ == "__main__":
    for name in CASES:
        print(f'    "{name}": "{record_digest_v2(_record(name))}",')
