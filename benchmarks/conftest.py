"""Shared helpers for the experiment benchmarks (E1-E12).

Each ``bench_eN_*.py`` regenerates one paper artifact (see DESIGN.md's
experiment index).  Timing goes through pytest-benchmark; the *shape*
claims (who wins, by roughly what factor) are asserted, and the measured
rows are printed so ``pytest benchmarks/ --benchmark-only -s`` reproduces
the paper's numbers-style output.

Every benchmark honours one shared convention:

* ``--seed N``  — base scheduler seed (default 0).  Scripts derive their
  seeds as ``SEED + offset`` so one flag shifts the whole sweep; shape
  assertions are validated for the default seed.
* ``--quick``   — shrink workloads so the full sweep finishes in well
  under a minute (the CI smoke configuration).  Timing-sensitive shape
  assertions are relaxed in quick mode; structural ones still hold.

The flags work both under pytest (``pytest benchmarks/ --quick``) and
standalone (``python benchmarks/bench_e1_logging_overhead.py --quick``) —
standalone mode runs every ``test_*`` function with a stub ``benchmark``
fixture and then writes ``BENCH_obs.json``, the deterministic
observability-counter snapshot the CI regression gate diffs against
``benchmarks/BENCH_obs.baseline.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from repro import compile_program

# ---------------------------------------------------------------------------
# The --seed/--quick convention.

SEED = 0
QUICK = False

#: Where standalone runs (and pytest sessions over benchmarks/) write the
#: deterministic counter snapshot.  CI uploads this file as an artifact.
OBS_JSON_PATH = os.environ.get("BENCH_OBS_PATH", "BENCH_obs.json")


def _parse_standalone_args() -> None:
    """Populate SEED/QUICK from argv when a bench script runs standalone.

    Bench modules build their workload tables at import time, and they
    import this module first — so parsing here, at *our* import time,
    guarantees the flags are visible before any workload is constructed.
    """
    global SEED, QUICK
    import argparse

    parser = argparse.ArgumentParser(description="PPD experiment benchmark")
    parser.add_argument("--seed", type=int, default=0, help="base scheduler seed")
    parser.add_argument(
        "--quick", action="store_true", help="shrunken CI-smoke workloads"
    )
    args = parser.parse_args()
    SEED, QUICK = args.seed, args.quick


if os.path.basename(sys.argv[0]).startswith("bench_"):
    _parse_standalone_args()


def pytest_addoption(parser):
    parser.addoption("--seed", type=int, default=0, help="base scheduler seed")
    parser.addoption(
        "--quick", action="store_true", help="shrunken CI-smoke workloads"
    )


def pytest_configure(config):
    global SEED, QUICK
    SEED = config.getoption("--seed")
    QUICK = config.getoption("--quick")


def scale(normal, quick):
    """Pick the full-size or quick-mode variant of a workload knob."""
    return quick if QUICK else normal


def base_seed() -> int:
    """The --seed value; read via a call so module-level imports of
    ``SEED`` taken before pytest_configure can't go stale."""
    return SEED


def is_quick() -> bool:
    return QUICK


# ---------------------------------------------------------------------------
# Measurement helpers.

_CACHE: dict = {}


def compiled(source, policy=None):
    key = (source, policy)
    if key not in _CACHE:
        _CACHE[key] = compile_program(source, policy=policy)
    return _CACHE[key]


def best_time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of fn() in seconds."""
    if QUICK:
        repeats = min(repeats, 2)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def paired_times(fn_a, fn_b, repeats: int = 5) -> tuple[float, float]:
    """Best-of-N for two functions, interleaved to cancel machine drift."""
    if QUICK:
        repeats = min(repeats, 2)
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def report(title: str, rows: list[tuple]) -> None:
    """Print one experiment's result table."""
    print(f"\n[{title}]")
    for row in rows:
        print("  " + " | ".join(str(cell) for cell in row))


# ---------------------------------------------------------------------------
# Observability snapshot (BENCH_obs.json).


def collect_obs_counters() -> dict:
    """Run the canonical instrumented smoke workload, return its counters.

    The workload is fixed-size and seeded (independent of --quick) so the
    resulting counters are byte-for-byte reproducible: an execution-phase
    run with logging, a flowback query, and a race scan — one exercise of
    every hook family in :mod:`repro.obs`.
    """
    from repro import Machine, PPDSession, obs
    from repro.workloads import bank_race, buggy_average

    with obs.capture() as registry:
        record = Machine(
            compiled(buggy_average(5)),
            seed=SEED,
            mode="logged",
            inputs=[10, 20, 30, 40, 50],
        ).run()
        session = PPDSession(record)
        session.start()
        session.why_value("average")

        racy = Machine(compiled(bank_race(2, 2)), seed=SEED + 3, mode="logged").run()
        racy_session = PPDSession(racy)
        racy_session.start()
        racy_session.races()

        counters = obs.deterministic_counters(registry)
    return counters


def write_obs_json(path: str = "") -> str:
    """Write the BENCH_obs.json snapshot; returns the path written."""
    path = path or OBS_JSON_PATH
    payload = {
        "schema": 1,
        "seed": SEED,
        "counters": collect_obs_counters(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def pytest_sessionfinish(session, exitstatus):
    if exitstatus == 0 and not session.config.getoption("--collect-only"):
        path = write_obs_json()
        print(f"\n[obs] wrote {path}")


# ---------------------------------------------------------------------------
# Standalone mode: python benchmarks/bench_eN_*.py [--seed N] [--quick]


class _StubBenchmark:
    """Just-run-it stand-in for pytest-benchmark's fixture."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1, **_):
        result = None
        for _round in range(max(1, rounds if not QUICK else 1)):
            result = fn(*args, **(kwargs or {}))
        return result


def run_standalone(module_globals: dict) -> int:
    """Execute every test_* function in a bench module, then write the
    observability snapshot.  Returns a process exit code."""
    name = module_globals.get("__name__", "bench")
    tests = [
        (key, fn)
        for key, fn in sorted(module_globals.items())
        if key.startswith("test_") and callable(fn)
    ]
    failures = 0
    started = time.perf_counter()
    for key, fn in tests:
        try:
            needs_benchmark = "benchmark" in fn.__code__.co_varnames[
                : fn.__code__.co_argcount
            ]
            fn(_StubBenchmark()) if needs_benchmark else fn()
            print(f"PASS {key}")
        except Exception:
            failures += 1
            print(f"FAIL {key}")
            traceback.print_exc()
    elapsed = time.perf_counter() - started
    print(
        f"\n{name}: {len(tests) - failures}/{len(tests)} passed "
        f"in {elapsed:.2f}s [seed={SEED} quick={QUICK}]"
    )
    path = write_obs_json()
    print(f"[obs] wrote {path}")
    return 1 if failures else 0
