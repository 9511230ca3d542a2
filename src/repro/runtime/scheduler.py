"""The seeded preemptive scheduler.

Models SMMP nondeterminism: at every preemption point (statement boundary
or shared-memory access) the scheduler picks which READY process runs next,
driven by a seeded PRNG.  Different seeds produce different interleavings —
the reproducibility problem the paper's incremental tracing is built to
survive — while the same seed reproduces the same interleaving exactly,
which keeps 'plain' and 'logged' runs of benchmark E1 comparable.
"""

from __future__ import annotations

import random

from .process import ProcState, Process


class Scheduler:
    """Chooses the next process to step."""

    def __init__(self, seed: int = 0, quantum: int = 1) -> None:
        self.rng = random.Random(seed)
        self.quantum = max(1, quantum)
        self._current: Process | None = None
        self._remaining = 0
        #: the previous pick was still READY but lost the CPU anyway
        #: (quantum expiry) — the SMMP preemption count E1/obs report
        self.preemptions = 0
        #: every change of the running process, voluntary or not
        self.context_switches = 0

    def pick(self, ready: list[Process]) -> Process:
        """Pick the process to run for the next step.

        ``ready`` is exactly the READY processes in pid order (the
        machine's run queue), so a process is in it iff its state is
        READY, and the seeded index below always names the same process
        for the same seed.  Runs the previous pick for up to ``quantum``
        consecutive steps (a cheap model of time slices), then switches
        uniformly at random.
        """
        current = self._current
        if current is not None and self._remaining > 0 and current.state is ProcState.READY:
            self._remaining -= 1
            return current
        choice = ready[self.rng.randrange(len(ready))] if len(ready) > 1 else ready[0]
        if choice is not current:
            self.context_switches += 1
            if current is not None and current.state is ProcState.READY:
                self.preemptions += 1
        self._current = choice
        self._remaining = self.quantum - 1
        return choice
