"""E14 — §6/§7: static race candidates prune the dynamic race scan.

§6 restricts race checking to accesses that "can actually conflict" and
§7 calls finding all conflicting pairs "more expensive" — the sought-after
cheaper algorithm.  :mod:`repro.analysis.racecands` supplies the static
half: sync-unit/lockset reasoning proves most site pairs of the E9 ring
workload ordered, so the dynamic scans skip their happened-before tests.

Three claims on the E9 ring (race-free by construction — every counter
behind its own semaphore):

* with ``candidates=``, both scans return **element-for-element identical**
  races to the unpruned scans (here: none), with ``pairs_pruned > 0``;
* the pruned scans do strictly fewer happened-before order checks;
* stripping the P()/V() guards from the same ring produces real races, and
  the pruned scans still report every one of them — pruning never hides a
  dynamic race (the candidates over-approximate).

Standalone runs write ``BENCH_static.json``: a deterministic ``counters``
section (gated in CI by ``check_obs_regression.py`` against
``benchmarks/BENCH_static.baseline.json``) plus an ungated ``timings``
section recording this machine's with/without-pruning wall-clock.
"""

import json
import os
import re

from bench_e9_race_scaling import ring_counters
from conftest import SEED, paired_times, report, run_standalone, scale

from repro import Machine, compile_program
from repro.analysis.racecands import candidates_from_compiled
from repro.core import find_races_indexed, find_races_naive

WORKERS = 6
ROUNDS = 3  # fixed: the counters section must not depend on --quick
SIZES = scale([2, 4, 6, 8], [2, 4, 6])
STATIC_JSON_PATH = os.environ.get("BENCH_STATIC_PATH", "BENCH_static.json")

_STATE: dict = {}


def strip_guards(source: str) -> str:
    """Remove every P()/V() from a ring program so the counters really race."""
    return re.sub(r" *[PV]\(m\d+\); *\n", "", source)


def _fixture(workers: int, guarded: bool = True):
    """(compiled, history, candidates) for one ring size, memoized."""
    key = (workers, guarded)
    fixtures = _STATE.setdefault("fixtures", {})
    if key not in fixtures:
        source = ring_counters(workers, ROUNDS)
        if not guarded:
            source = strip_guards(source)
        compiled = compile_program(source)
        record = Machine(compiled, seed=SEED + 1, mode="logged").run()
        assert record.failure is None and record.deadlock is None
        fixtures[key] = (compiled, record.history, candidates_from_compiled(compiled))
    return fixtures[key]


def test_e14_guarded_ring_prunes_everything():
    """Fixed-size guarded ring: identical (empty) races, pairs_pruned > 0,
    and strictly fewer order checks with candidates for both scans."""
    compiled, history, candidates = _fixture(WORKERS)
    naive_plain = find_races_naive(history)
    naive_pruned = find_races_naive(history, candidates=candidates)
    indexed_plain = find_races_indexed(history)
    indexed_pruned = find_races_indexed(history, candidates=candidates)

    assert naive_plain.races == naive_pruned.races == []
    assert indexed_plain.races == indexed_pruned.races == []
    assert naive_pruned.pairs_pruned > 0
    assert indexed_pruned.pairs_pruned > 0
    assert naive_pruned.order_checks < naive_plain.order_checks
    assert indexed_pruned.order_checks <= indexed_plain.order_checks
    # Same pair universe either way — pruning changes work, not coverage.
    assert indexed_pruned.pairs_examined == indexed_plain.pairs_examined

    _STATE.setdefault("counters", {}).update({
        "candidates.pair_count": candidates.pair_count(),
        "candidates.variables": len(candidates.variables),
        "naive.pairs_examined": naive_plain.pairs_examined,
        "naive.pairs_pruned": naive_pruned.pairs_pruned,
        "naive.order_checks_plain": naive_plain.order_checks,
        "naive.order_checks_pruned": naive_pruned.order_checks,
        "indexed.pairs_examined": indexed_plain.pairs_examined,
        "indexed.pairs_pruned": indexed_pruned.pairs_pruned,
        "indexed.order_checks_plain": indexed_plain.order_checks,
        "indexed.order_checks_pruned": indexed_pruned.order_checks,
    })


def test_e14_scaling_table():
    """Pairs considered with/without pruning as the ring grows, plus the
    wall-clock gap on the largest size."""
    rows = [("workers", "pairs", "pruned", "checks plain", "checks pruned")]
    for workers in SIZES:
        _compiled, history, candidates = _fixture(workers)
        plain = find_races_indexed(history)
        pruned = find_races_indexed(history, candidates=candidates)
        assert plain.races == pruned.races
        assert pruned.pairs_pruned > 0, f"nothing pruned at {workers} workers"
        rows.append((
            workers,
            plain.pairs_examined,
            pruned.pairs_pruned,
            plain.order_checks,
            pruned.order_checks,
        ))
    report("E14: candidate pruning vs ring size", rows)

    _compiled, history, candidates = _fixture(SIZES[-1])
    rows = [("scan", "plain s", "pruned s", "speedup")]
    timings = _STATE.setdefault("timings", {"workers": SIZES[-1]})
    for name, scan in (("naive", find_races_naive), ("indexed", find_races_indexed)):
        plain_s, pruned_s = paired_times(
            lambda scan=scan: scan(history),
            lambda scan=scan: scan(history, candidates=candidates),
        )
        speedup = plain_s / pruned_s if pruned_s else float("inf")
        timings.update({
            f"{name}_plain_s": round(plain_s, 6),
            f"{name}_pruned_s": round(pruned_s, 6),
            f"{name}_prune_speedup": round(speedup, 3),
        })
        rows.append((name, f"{plain_s:.4f}", f"{pruned_s:.4f}", f"{speedup:.2f}x"))
    report(f"E14: scan wall-clock at {SIZES[-1]} workers, with vs without candidates", rows)


def test_e14_unguarded_ring_races_survive():
    """The soundness half: on the guard-stripped ring the races are real,
    and the pruned scans report every one of them."""
    _compiled, history, candidates = _fixture(WORKERS, guarded=False)
    plain = find_races_indexed(history)
    pruned = find_races_indexed(history, candidates=candidates)
    assert plain.races, "guard-stripped ring should race"
    assert plain.races == pruned.races
    naive_plain = find_races_naive(history)
    naive_pruned = find_races_naive(history, candidates=candidates)
    assert naive_plain.races == naive_pruned.races
    _STATE.setdefault("counters", {}).update({
        "unguarded.races": len(plain.races),
        "unguarded.pairs_pruned": pruned.pairs_pruned,
    })


def test_e14_write_static_json():
    """Assemble BENCH_static.json (runs last: 'w' sorts after the rest)."""
    payload = {
        "schema": 1,
        "seed": SEED,
        "workload": f"ring_counters({WORKERS}, {ROUNDS})",
        "counters": dict(sorted(_STATE["counters"].items())),
        "timings": _STATE["timings"],
    }
    with open(STATIC_JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[static] wrote {STATIC_JSON_PATH}")


if __name__ == "__main__":
    raise SystemExit(run_standalone(globals()))
