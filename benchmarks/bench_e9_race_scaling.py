"""E9 — §7: "The problem of finding all pairs of possible conflicting
edges is more expensive.  We are currently investigating algorithms to
reduce the cost of detecting these conflicts."

The workload is a ring of workers: worker *i* updates counters *i* and
*i+1* (each behind its own semaphore), so every shared variable is touched
by exactly two processes.  As the ring grows, the naive all-pairs scan
does quadratically more happened-before checks, while the variable-indexed
scan's work grows only linearly — the paper's sought-after "cheaper
algorithm".  Both scans count one happened-before test per pair tested,
and the table gives each scan's median wall-clock over alternating
repeats beside the counts.
"""

from statistics import median

from conftest import SEED, paired_samples, report, run_standalone, scale

from repro import Machine, compile_program
from repro.core import find_races_indexed, find_races_naive


def ring_counters(workers: int, rounds: int) -> str:
    """W workers in a ring, each updating its own and its successor's
    counter under per-counter semaphores (race-free by construction)."""
    decls = "\n".join(
        f"shared int c{i};\nsem m{i} = 1;" for i in range(workers)
    )
    procs = []
    for i in range(workers):
        j = (i + 1) % workers
        procs.append(
            f"""
proc worker{i}() {{
    for (k = 0; k < {rounds}; k = k + 1) {{
        P(m{i});
        c{i} = c{i} + 1;
        V(m{i});
        P(m{j});
        c{j} = c{j} + 1;
        V(m{j});
    }}
    send(done, {i});
}}"""
        )
    spawns = "\n    ".join(f"spawn worker{i}();" for i in range(workers))
    return f"""
{decls}
chan done;
{"".join(procs)}

proc main() {{
    {spawns}
    for (w = 0; w < {workers}; w = w + 1) {{
        int ack = recv(done);
    }}
    join();
}}
"""


SIZES = scale([2, 4, 6, 8], [2, 4, 6])
ROUNDS = scale(3, 2)

_HISTORIES = {}


def _history_for(workers):
    if workers not in _HISTORIES:
        record = Machine(
            compile_program(ring_counters(workers, ROUNDS)), seed=SEED + 1, mode="logged"
        ).run()
        assert record.failure is None and record.deadlock is None
        _HISTORIES[workers] = record.history
    return _HISTORIES[workers]


def _scaling_table():
    rows = [
        (
            "workers",
            "edges",
            "naive checks",
            "indexed checks",
            "speedup",
            "naive s",
            "indexed s",
        )
    ]
    gaps = []
    for workers in SIZES:
        history = _history_for(workers)
        edges = len(history.segments)
        naive = find_races_naive(history)
        indexed = find_races_indexed(history)
        assert naive.races == indexed.races
        gap = naive.order_checks / max(1, indexed.order_checks)
        gaps.append(gap)
        naive_s, indexed_s = paired_samples(
            lambda: find_races_naive(history), lambda: find_races_indexed(history)
        )
        rows.append(
            (
                workers,
                edges,
                naive.order_checks,
                indexed.order_checks,
                f"{gap:.1f}x",
                f"{median(naive_s):.5f}",
                f"{median(indexed_s):.5f}",
            )
        )
    report("E9: race-scan work vs execution size (ring of counters)", rows)
    return gaps


def test_e9_scaling_shape(benchmark):
    gaps = benchmark.pedantic(_scaling_table, rounds=1, iterations=1)
    # Shape: the indexed scan's advantage grows with execution size.
    assert gaps[-1] > gaps[0]
    assert gaps[-1] > scale(5.0, 2.0)


def test_e9_naive_scan(benchmark):
    history = _history_for(SIZES[-1])
    benchmark(lambda: find_races_naive(history))


def test_e9_indexed_scan(benchmark):
    history = _history_for(SIZES[-1])
    benchmark(lambda: find_races_indexed(history))


if __name__ == "__main__":
    raise SystemExit(run_standalone(globals()))
