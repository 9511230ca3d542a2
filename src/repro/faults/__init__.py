"""repro.faults — deterministic fault injection for the replay/service stack.

The paper's mechanism only pays off if a recorded execution can *always*
be re-executed; this package exists to prove that the machinery around
replay — the process pool, the debug service, the persist and cache
layers — keeps that promise when workers die, sockets drop, and records
rot on disk.  A :class:`FaultPlan` (:mod:`.plan`) schedules faults at
named injection points, deterministically from a seed; the runtime state
(:mod:`.state`) makes the disabled path cost one attribute load, exactly
like :mod:`repro.obs`.

Three ways to activate a plan:

* ``PPD_FAULTS="socket.drop:n=2" ppd serve ...`` — the env
  var (plus ``PPD_FAULTS_SEED``), honoured by every ``ppd`` entry point;
* ``ppd serve --faults SPEC`` / ``ppd replay --faults SPEC`` — the CLI;
* ``with faults.inject("cache.spill_io:n=3") as plan: ...`` — tests.

Every fired fault increments the ``faults.injected`` observability
counter (labelled by point), and every recovery action the stack takes
in response shows up under ``recovery.*`` — so a fault-free run is
provably fault-free (all ``faults.*`` stay zero), and a chaos run's
degradations are visible in ``ppd stats``.  The CI gate
(``benchmarks/check_fault_tolerance.py``) runs representative workloads
under each fault class and requires byte-identical records or typed,
documented errors — never a hang, never a wrong answer.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from . import state
from .plan import POINTS, FaultPlan, FaultPoint, FaultSpecError
from .state import (
    ENV_SEED,
    ENV_SPEC,
    activate_from_env,
    current_plan,
    fire,
    install,
    uninstall,
)

__all__ = [
    "ENV_SEED",
    "ENV_SPEC",
    "FaultPlan",
    "FaultPoint",
    "FaultSpecError",
    "POINTS",
    "activate_from_env",
    "current_plan",
    "fire",
    "inject",
    "install",
    "is_active",
    "state",
    "uninstall",
]


def is_active() -> bool:
    return state.active


@contextmanager
def inject(
    plan_or_spec: Union[FaultPlan, str], seed: int = 0
) -> Iterator[FaultPlan]:
    """Activate a fault plan for a block, restoring the prior state after.

    Accepts a :class:`FaultPlan` or a spec string (parsed with *seed*).
    Yields the active plan so tests can assert on ``plan.total_fired()``.
    """
    plan = (
        plan_or_spec
        if isinstance(plan_or_spec, FaultPlan)
        else FaultPlan.parse(plan_or_spec, seed=seed)
    )
    previous: Optional[FaultPlan] = state.current_plan()
    was_active = state.active
    state.install(plan)
    try:
        yield plan
    finally:
        if was_active and previous is not None:
            state.install(previous)
        else:
            state.uninstall()
