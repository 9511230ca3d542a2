"""Differential test oracles: implementations the program replaced.

Every :class:`repro.Machine` runs on the bytecode VM.  The tree walker in
:mod:`tests.oracle.interp` is kept only so the VM can be checked against
an independent implementation of the same semantics: the parity tests,
the hypothesis differentials, ``benchmarks/check_vm_parity.py`` and E15
run a program once inside :func:`oracle` and once outside it, then
compare every observable surface.

:mod:`tests.oracle.lexer` and :mod:`tests.oracle.parser` are the
character-at-a-time scanner and the one-function-per-precedence-level
parser that ``repro.lang`` replaced; ``tests/lang/test_front_end_differential.py``
holds the current front end to their tokens, ASTs and errors.
:mod:`tests.oracle.racecands` is the race-candidate analysis that walked
each procedure once per fact; ``tests/analysis/test_racecands_differential.py``
holds ``repro.analysis.racecands`` to its candidate sets and locksets.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.runtime.machine import Machine

from .interp import Interp


def _oracle_executor(machine: Machine, process) -> Interp:
    return Interp(machine, process)


@contextmanager
def oracle() -> Iterator[None]:
    """Run every machine built or replayed inside the block on the walker.

    Patches :meth:`Machine._new_executor`, which both ``Machine.run`` and
    ``EmulationPackage.replay`` call, so logged runs and e-block replays
    both switch.  Not thread-safe.
    """
    saved = Machine._new_executor
    Machine._new_executor = _oracle_executor
    try:
        yield
    finally:
        Machine._new_executor = saved
