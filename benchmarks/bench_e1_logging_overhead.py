"""E1 — §7's evaluation claim: "the tracing added less than 15% to the
program execution time".

We run each workload on the virtual SMMP twice under the same scheduler
seed — once plain, once as the paper's object code (prelogs, postlogs,
sync prelogs, input logs) — and report the overhead ratio.  The paper's
number was measured on hand-annotated C; ours is a bytecode VM, so the
*ratio*, not the absolute time, is the reproduced quantity.

Each workload runs ``PAIRS`` alternating plain/logged pairs; the table
reports the median of the per-pair overheads and their interquartile
range.  The runs take milliseconds, so single pairs spread widely on a
shared machine; a ratio of two best-of-N minima would hide that spread.
Beside the ratio it gives the median plain run and the median absolute
logging cost (logged minus plain, per pair): work removed from both runs
raises the ratio while the logging cost stays or falls.
"""

import statistics
import time

from conftest import QUICK, SEED, compiled, report, run_standalone, scale

from repro import Machine
from repro.workloads import bank_safe, compute_heavy, matrix_sum, producer_consumer

WORKLOADS = [
    ("compute_heavy", compute_heavy(*scale((60, 40), (15, 10)))),
    ("matrix_sum", matrix_sum(scale(20, 8))),
    ("producer_consumer", producer_consumer(*scale((60, 4), (15, 2)))),
    ("bank_safe", bank_safe(*scale((3, 25), (2, 6)))),
]

#: alternating plain/logged pairs per workload
PAIRS = scale(11, 7)

#: Full-mode ceiling on bank_safe's median overhead, in percent.  bank_safe
#: is the semaphore-dense row, the one whose logging cost a change to the
#: logging hooks moves: 20 full runs on one pinned CPU of a 2-vCPU Xeon
#: read 12.5-17.1% (EXPERIMENTS.md E1), and 30 earlier runs 9.5-16.6%.
#: A doubled logging cost (about 0.2 ms more on a 1.3 ms plain run)
#: crosses it; noise has not come within 7 points of it.
BANK_SAFE_BOUND = 25.0


def _run_seconds(program, mode) -> float:
    start = time.perf_counter()
    Machine(program, seed=SEED, mode=mode).run()
    return time.perf_counter() - start


def _timed_pairs(source) -> list[tuple[float, float]]:
    """(plain, logged) seconds of each plain-then-logged pair, after one
    untimed pair that lowers the program to bytecode."""
    program = compiled(source)
    _run_seconds(program, "plain")
    _run_seconds(program, "logged")
    return [
        (_run_seconds(program, "plain"), _run_seconds(program, "logged"))
        for _ in range(PAIRS)
    ]


def _overhead_table():
    rows = [
        ("workload", "median overhead %", "IQR", "plain ms", "logged − plain ms", "paper bound")
    ]
    medians = {}
    for name, source in WORKLOADS:
        pairs = _timed_pairs(source)
        overheads = [100.0 * (logged - plain) / plain for plain, logged in pairs]
        q1, median, q3 = statistics.quantiles(overheads, n=4, method="inclusive")
        medians[name] = median
        plain_ms = 1e3 * statistics.median(plain for plain, _ in pairs)
        cost_ms = 1e3 * statistics.median(logged - plain for plain, logged in pairs)
        rows.append(
            (name, f"{median:.1f}%", f"{q1:.1f}–{q3:.1f}%", f"{plain_ms:.2f}",
             f"{cost_ms:.2f}", "< 15%")
        )
    report(f"E1: execution-phase logging overhead ({PAIRS} pairs)", rows)
    return medians


def test_e1_overhead_table(benchmark):
    medians = benchmark.pedantic(_overhead_table, rounds=1, iterations=1)
    overheads = list(medians.values())
    # Shape: overhead is a modest constant factor, the same ballpark as the
    # paper's 15%.  (Generous ceiling: interpreter timing is noisy, and
    # quick-mode workloads are too small for a stable ratio.)
    if not QUICK:
        assert sum(overheads) / len(overheads) < 35.0
        assert min(overheads) < 15.0
        # The compute rows read about 1% whatever bank_safe does, so the two
        # bounds above cannot see its logging cost grow; this one can.
        assert medians["bank_safe"] < BANK_SAFE_BOUND


def test_e1_logged_run(benchmark):
    program = compiled(WORKLOADS[0][1])
    benchmark(lambda: Machine(program, seed=SEED, mode="logged").run())


def test_e1_plain_run(benchmark):
    program = compiled(WORKLOADS[0][1])
    benchmark(lambda: Machine(program, seed=SEED, mode="plain").run())


if __name__ == "__main__":
    raise SystemExit(run_standalone(globals()))
