"""CI gate: the bytecode VM must be observationally identical to the
reference tree walker the test suite keeps as its oracle (``tests/oracle``).

Usage::

    python benchmarks/check_vm_parity.py [--seed N] [--trace/--no-trace]

Every workload in :mod:`repro.workloads`, every ``examples/*.pcl``
program and every program with dead code in ``tests/vm/dead_code.py``
is executed twice — once on the oracle, once on the VM that
every :class:`~repro.Machine` runs — under identical seeds, modes, and
inputs.  For each pair the gate diffs three surfaces:

* the **persisted record** (``record_to_json``: logs, sync history,
  final shared state, failure/deadlock info, process metadata);
* the **event log** (the flight-recorder trace, event by event, plus the
  ``trace_of_sync`` cross-index);
* the **deterministic observability counters** (``repro.obs`` registry,
  wall-clock timers filtered out at emission).

Any byte that differs is a bug in the VM or the oracle — the VM is not
allowed to be "almost" the reference.  Runs are repeated in plain mode
(no logging) as a second schedule-sensitivity probe; plain records are
not persistable, so that pass compares output/failure/final-shared
directly.

Exit status: 0 parity holds everywhere, 1 divergence, 2 usage error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import Machine, compile_program, obs  # noqa: E402
from repro.obs.report import deterministic_counters  # noqa: E402
from repro.runtime.persist import record_to_json  # noqa: E402
from repro import workloads  # noqa: E402
from tests.oracle import oracle  # noqa: E402
from tests.vm.dead_code import DEAD_CODE_PROGRAMS  # noqa: E402

#: workload name -> (source, inputs); mirrors tests/analysis/test_lint_smoke.py
WORKLOADS: dict[str, tuple[str, list | None]] = {
    "bank_race": (workloads.bank_race(2, 2), None),
    "bank_safe": (workloads.bank_safe(2, 2), None),
    "buggy_average": (workloads.buggy_average(5), [10, 20, 30, 40, 50]),
    "compute_heavy": (workloads.compute_heavy(3, 4), None),
    "dining_philosophers": (workloads.dining_philosophers(3), None),
    "dining_courteous": (workloads.dining_philosophers(3, courteous=True), None),
    "fib_recursive": (workloads.fib_recursive(6), None),
    "fig41": (workloads.fig41_program(), None),
    "fig53": (workloads.fig53_program(), None),
    "fig61": (workloads.fig61_program(), None),
    "matrix_sum": (workloads.matrix_sum(3), None),
    "nested_calls": (workloads.nested_calls(), None),
    "pipeline": (workloads.pipeline(2, 3), None),
    "producer_consumer": (workloads.producer_consumer(4, 1), None),
    "rpc_server": (workloads.rpc_server(), None),
    # MPI-style process groups (repro.workloads.mpi): clean and seeded-
    # fault variants, so localization inputs are engine-independent too.
    "mpi_scatter_gather": (workloads.scatter_gather(5), None),
    "mpi_scatter_gather_skew": (workloads.scatter_gather(5, deviant=2, fault="skew"), None),
    "mpi_ring_allreduce": (workloads.ring_allreduce(5), None),
    "mpi_broadcast_tree": (workloads.broadcast_tree(6), None),
    "mpi_broadcast_extra_ack": (workloads.broadcast_tree(6, deviant=3, fault="extra_ack"), None),
    "mpi_master_worker": (workloads.master_worker(4, 2), None),
    "mpi_master_worker_drop": (workloads.master_worker(4, 2, deviant=1, fault="drop_result"), None),
}


def example_programs() -> dict[str, tuple[str, list | None]]:
    root = os.path.join(os.path.dirname(__file__), "..", "examples")
    found = {}
    for path in sorted(glob.glob(os.path.join(root, "*.pcl"))):
        name = "example:" + os.path.splitext(os.path.basename(path))[0]
        with open(path) as handle:
            found[name] = (handle.read(), None)
    return found


def observe(source, seed, mode, trace, inputs):
    """One run -> (record surface, event surface, counter surface)."""
    compiled = compile_program(source)
    with obs.capture() as registry:
        record = Machine(
            compiled,
            seed=seed,
            mode=mode,
            trace=trace,
            inputs=list(inputs) if inputs else None,
        ).run()
        counters = deterministic_counters(registry)
    persisted = None
    if mode == "logged":
        persisted = json.dumps(record_to_json(record), sort_keys=True)
    events = None
    if record.tracer:
        events = [event.to_json() for event in record.tracer.events]
    surface = {
        "persisted": persisted,
        "events": events,
        "trace_of_sync": sorted(record.trace_of_sync.items()),
        "output": record.output,
        "shared_final": record.shared_final,
        "failure": record.failure.message if record.failure else None,
        "deadlock": record.deadlock is not None,
        "total_steps": record.total_steps,
        "process_steps": sorted(record.process_steps.items()),
        "counters": counters,
    }
    return surface


def diff_surfaces(a: dict, b: dict) -> list[str]:
    problems = []
    for key in a:
        if a[key] != b[key]:
            if key == "counters":
                for name in sorted(set(a[key]) | set(b[key])):
                    left, right = a[key].get(name), b[key].get(name)
                    if left != right:
                        problems.append(f"counter {name}: oracle={left} vm={right}")
            elif key == "events" and a[key] and b[key]:
                for i, (left, right) in enumerate(zip(a[key], b[key])):
                    if left != right:
                        problems.append(f"event[{i}]: oracle={left} vm={right}")
                        break
                if len(a[key]) != len(b[key]):
                    problems.append(
                        f"event count: oracle={len(a[key])} vm={len(b[key])}"
                    )
            else:
                problems.append(f"{key} differs")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-trace", action="store_true")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 2
    programs = dict(WORKLOADS)
    programs.update(example_programs())
    programs.update(
        (f"dead_code:{name}", (source, None)) for name, source in DEAD_CODE_PROGRAMS.items()
    )
    configs = [("logged", not args.no_trace), ("plain", False)]
    runs = failures = 0
    for name, (source, inputs) in programs.items():
        for mode, trace in configs:
            runs += 1
            with oracle():
                reference = observe(source, args.seed, mode, trace, inputs)
            vm = observe(source, args.seed, mode, trace, inputs)
            problems = diff_surfaces(reference, vm)
            if problems:
                failures += 1
                print(f"DIVERGED {name} [mode={mode} trace={trace}]")
                for line in problems[:8]:
                    print(f"    {line}")
            else:
                print(f"ok {name} [mode={mode} trace={trace}]")
    verdict = "FAIL" if failures else "PASS"
    print(
        f"\nvm parity gate: {verdict} — {runs - failures}/{runs} run pairs "
        f"identical across {len(programs)} programs (seed={args.seed})"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
