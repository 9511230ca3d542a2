"""E15 — execution-substrate throughput: the ``repro.vm`` bytecode engine
that every Machine runs vs the reference tree walker the test suite keeps
as its differential oracle (``tests/oracle``).

The paper's mechanism asks the execution phase to be cheap enough to leave
permanently enabled.  The VM replaced the tree walker as the only runtime
engine; this experiment measures what that bought, as ``exec.steps``
throughput (preemption-point steps per second — both count steps
identically, which E15a asserts first) on compute-dense workloads, and
reports the sync-dominated case separately: P/V, channel, and scheduler
costs are shared code, so Amdahl caps the visible speedup there.

Three claims:

* **E15a (parity)** — for a fixed workload table, the VM and the oracle
  agree on ``total_steps``, per-process step counts, and printed output.  The step
  counts become the deterministic ``counters`` section of
  ``BENCH_vm.json``, gated in CI by ``check_obs_regression.py`` against
  ``benchmarks/BENCH_vm.baseline.json``.
* **E15b (throughput)** — on compute-dense workloads in full mode the VM
  executes >= 2x the oracle's steps/second (quick mode relaxes the
  factor; CI runs quick).
* **E15c (sync ceiling)** — on a sync-heavy workload the VM still wins,
  but by less; the row is reported so the Amdahl gap stays visible.

Each workload runs ``PAIRS`` alternating oracle/VM pairs after one
untimed pair.  A row reports each engine's median steps/second and the
median of the per-pair speedups with its interquartile range; the floors
gate that median.  The runs take milliseconds, so on a shared machine a
ratio of two best-of-N minima swings from run to run.

Standalone runs write ``BENCH_vm.json`` (``BENCH_VM_PATH`` overrides).
"""

import json
import os
import statistics
import sys
import time

from conftest import SEED, compiled, report, run_standalone, scale

from repro import Machine
from repro.workloads import bank_race, compute_heavy, fib_recursive, matrix_sum

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from tests.oracle import oracle  # noqa: E402

VM_JSON_PATH = os.environ.get("BENCH_VM_PATH", "BENCH_vm.json")

#: Fixed-size table for the deterministic counters section — independent
#: of --quick so the CI gate diffs byte-stable numbers.
COUNTER_WORKLOADS = {
    "compute_heavy": compute_heavy(3, 30),
    "matrix_sum": matrix_sum(6),
    "fib_recursive": fib_recursive(12),
    "bank_race": bank_race(2, 50),
}

_STATE: dict = {}


def _run(source, engine):
    """One plain run on the VM (``"vm"``) or on the oracle (``"interp"``)."""
    machine = Machine(compiled(source), seed=SEED, mode="plain")
    if engine == "vm":
        return machine.run()
    with oracle():
        return machine.run()


#: alternating oracle/VM pairs per workload
PAIRS = scale(11, 5)


def _steps_per_second(source, engine):
    start = time.perf_counter()
    record = _run(source, engine)
    elapsed = time.perf_counter() - start
    return record.total_steps, record.total_steps / elapsed


def _paired_throughput(source):
    """Time ``PAIRS`` alternating oracle/VM runs, after one untimed pair
    that lowers the program to bytecode; returns the step count, each
    engine's median steps/second, and the per-pair speedups' quartiles."""
    _run(source, "interp")
    _run(source, "vm")
    interp_rates, vm_rates, speedups = [], [], []
    for _ in range(PAIRS):
        steps, interp_sps = _steps_per_second(source, "interp")
        _, vm_sps = _steps_per_second(source, "vm")
        interp_rates.append(interp_sps)
        vm_rates.append(vm_sps)
        speedups.append(vm_sps / interp_sps)
    quartiles = statistics.quantiles(speedups, n=4, method="inclusive")
    return steps, statistics.median(interp_rates), statistics.median(vm_rates), quartiles


def _row(name, source, rows, timings):
    """Measure one workload into the table and the JSON timings; returns
    its median speedup."""
    steps, interp_sps, vm_sps, (q1, speedup, q3) = _paired_throughput(source)
    spread = f"{q1:.2f}–{q3:.2f}x"
    rows.append((name, steps, f"{interp_sps:,.0f}", f"{vm_sps:,.0f}", f"{speedup:.2f}x", spread))
    timings[name] = {
        "steps": steps,
        "interp_steps_per_s": round(interp_sps, 1),
        "vm_steps_per_s": round(vm_sps, 1),
        "speedup": round(speedup, 3),
    }
    return speedup


_HEADER = ("workload", "steps", "oracle steps/s", "vm steps/s", "speedup", "IQR")


def test_e15a_step_parity():
    """The VM and the oracle take exactly the same preemption-point steps."""
    counters = {}
    for name, source in COUNTER_WORKLOADS.items():
        interp = _run(source, "interp")
        vm = _run(source, "vm")
        assert interp.total_steps == vm.total_steps, name
        assert sorted(interp.process_steps.items()) == sorted(
            vm.process_steps.items()
        ), name
        assert interp.output == vm.output, name
        counters[f"vm.steps.{name}"] = vm.total_steps
        counters[f"vm.processes.{name}"] = len(vm.process_steps)
    _STATE["counters"] = counters


def test_e15b_compute_dense_throughput():
    """Scalar-dense workloads: VM >= 2x oracle steps/second (median)."""
    table = {
        "compute_heavy": compute_heavy(4, scale(120, 30)),
        "fib_recursive": fib_recursive(scale(17, 13)),
        "matrix_sum": matrix_sum(scale(10, 5)),
    }
    floor = scale(2.0, 1.2)
    rows = [_HEADER]
    timings = _STATE.setdefault("timings", {})
    worst = min(_row(name, source, rows, timings) for name, source in table.items())
    report(f"E15 compute-dense throughput (exec.steps/s, {PAIRS} pairs)", rows)
    assert worst >= floor, f"VM only {worst:.2f}x the oracle (floor {floor}x)"


def test_e15c_sync_heavy_ceiling():
    """Sync-dominated workload: the win shrinks but must not invert."""
    rows = [_HEADER]
    timings = _STATE.setdefault("timings", {})
    speedup = _row("bank_race", bank_race(4, scale(200, 50)), rows, timings)
    report(f"E15 sync-heavy ceiling (bank_race, {PAIRS} pairs)", rows)
    assert speedup >= scale(1.1, 0.8), f"VM slower than the oracle: {speedup:.2f}x"


def test_e15z_write_vm_json():
    """Assemble BENCH_vm.json (runs last: 'z' sorts after the rest)."""
    payload = {
        "schema": 1,
        "seed": SEED,
        "counters": dict(sorted(_STATE["counters"].items())),
        "timings": _STATE.get("timings", {}),
    }
    with open(VM_JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[vm] wrote {VM_JSON_PATH}")


if __name__ == "__main__":
    raise SystemExit(run_standalone(globals()))
