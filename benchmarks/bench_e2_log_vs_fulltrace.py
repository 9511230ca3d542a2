"""E2 — the economics of incremental tracing (§2, §3.1).

The paper's argument: tracing every event is "expensive in time and
space"; the log is small, and the debugging phase fills the gap on demand.
Three measurements reproduce that:

* space  — log bytes vs full-trace bytes on the same execution, beside
           the bytes of the saved record (logs plus synchronization
           history, source and stop state: what a later session reads),
* time   — logged run vs full-trace run,
* demand — events a debugging session actually generates to answer one
           flowback query vs events a full trace generates up front.
"""

from conftest import QUICK, SEED, compiled, paired_times, report, run_standalone, scale

from repro import Machine, PPDSession
from repro.runtime.persist import record_to_json
from repro.workloads import compute_heavy, fib_recursive, matrix_sum, producer_consumer

WORKLOADS = [
    ("compute_heavy", compute_heavy(*scale((40, 30), (12, 10)))),
    ("matrix_sum", matrix_sum(scale(16, 8))),
    ("producer_consumer", producer_consumer(*scale((50, 4), (15, 2)))),
    ("fib_recursive", fib_recursive(scale(12, 8))),
]


def _space_table():
    rows = [("workload", "log bytes", "full-trace bytes", "ratio", "saved record bytes")]
    ratios = []
    for name, source in WORKLOADS:
        program = compiled(source)
        logged = Machine(program, seed=SEED, mode="logged").run()
        traced = Machine(program, seed=SEED, mode="plain", trace=True).run()
        log_bytes = logged.log_bytes()
        trace_bytes = traced.tracer.byte_size()
        ratio = trace_bytes / max(1, log_bytes)
        ratios.append(ratio)
        record_bytes = len(record_to_json(logged).encode())
        rows.append((name, log_bytes, trace_bytes, f"{ratio:.0f}x", record_bytes))
    report("E2a: execution-phase space", rows)
    return ratios


def test_e2_space(benchmark):
    ratios = benchmark.pedantic(_space_table, rounds=1, iterations=1)
    # Shape: full traces are at least an order of magnitude larger on
    # loop-heavy programs (smaller factor for the shrunken quick inputs).
    assert max(ratios) > scale(10, 4)
    assert min(ratios) > scale(2, 1)


def _time_table():
    rows = [("workload", "logged", "full trace", "slowdown")]
    slowdowns = []
    for name, source in WORKLOADS[:2]:
        program = compiled(source)
        logged, traced = paired_times(
            lambda: Machine(program, seed=SEED, mode="logged").run(),
            lambda: Machine(program, seed=SEED, mode="plain", trace=True).run(),
        )
        slowdown = traced / logged
        slowdowns.append(slowdown)
        rows.append((name, f"{logged*1e3:.1f}ms", f"{traced*1e3:.1f}ms", f"{slowdown:.2f}x"))
    report("E2b: execution-phase time", rows)
    return slowdowns


def test_e2_time(benchmark):
    slowdowns = benchmark.pedantic(_time_table, rounds=1, iterations=1)
    if not QUICK:  # timing ratios are unstable on quick-mode workloads
        assert sum(slowdowns) / len(slowdowns) > 1.1  # full tracing costs more


def _demand_table():
    rows = [("workload", "events for one query", "events in full trace", "fraction")]
    fractions = []
    for name, source in [("fib_recursive", fib_recursive(scale(13, 9)))]:
        program = compiled(source)
        record = Machine(program, seed=SEED, mode="logged").run()
        session = PPDSession(record)
        session.start()
        root = next(
            n for n in session.graph.nodes.values() if "print" in n.label
        )
        session.flowback_expanding(root.uid, max_depth=6, budget=4)
        traced = Machine(program, seed=SEED, mode="plain", trace=True).run()
        fraction = session.events_generated / len(traced.tracer.events)
        fractions.append(fraction)
        rows.append(
            (name, session.events_generated, len(traced.tracer.events), f"{fraction:.1%}")
        )
    report("E2c: debugging-phase demand (incremental tracing)", rows)
    return fractions


def test_e2_incremental_demand(benchmark):
    fractions = benchmark.pedantic(_demand_table, rounds=1, iterations=1)
    # Shape: one flowback session touches a small fraction of all events.
    assert max(fractions) < scale(0.25, 0.5)


if __name__ == "__main__":
    raise SystemExit(run_standalone(globals()))
