"""CI gate: parallel replay must actually beat serial replay.

Usage::

    python benchmarks/check_replay_speedup.py [CURRENT]

Default: ``BENCH_replay.json`` (produced by a standalone
``bench_e13_parallel_replay.py`` run).

The §7 claim is that re-executing e-blocks on the multiprocessor is a
*win*, not just possible — so on any runner with ≥2 usable CPUs and a
pool that really forked workers (``jobs >= 2``, ``parallel: true``),
``pooled_speedup`` must exceed 1.0.  Byte-identity is gated separately
(the bench asserts it inline); this gate only keeps the performance
claim honest.

On a single-CPU runner the pool cannot win by construction — process
fan-out adds dispatch overhead with no parallelism to pay for it — so
the gate *skips*, loudly, with a ``::notice::`` annotation rather than a
silent pass: a green check must never suggest the speedup was verified
when it was not.

Exit status: 0 gate passed or explicitly skipped, 1 regression, 2 usage.
"""

from __future__ import annotations

import json
import sys

#: The claim: pooled replay beats serial wall-clock on multi-core.
MIN_SPEEDUP = 1.0
#: Fewer usable CPUs than this and the claim is untestable, not failed.
MIN_CPUS = 2


def main(argv: list[str]) -> int:
    if len(argv) > 2 or argv[1:2] in (["-h"], ["--help"]):
        print(__doc__)
        return 2
    path = argv[1] if len(argv) > 1 else "BENCH_replay.json"
    try:
        with open(path) as handle:
            timings = json.load(handle).get("timings", {})
    except FileNotFoundError:
        print(f"replay speedup gate: cannot read {path!r}")
        print("(run benchmarks/bench_e13_parallel_replay.py to produce it)")
        return 2

    cpus = timings.get("cpus", 0)
    jobs = timings.get("jobs", 0)
    speedup = timings.get("pooled_speedup", 0.0)
    detail = (
        f"jobs={jobs} cpus={cpus} "
        f"serial={timings.get('serial_s', '?')}s pooled={timings.get('pooled_s', '?')}s"
    )

    if cpus < MIN_CPUS:
        print(
            f"::notice title=replay speedup gate skipped::"
            f"only {cpus} usable CPU(s) on this runner — pooled_speedup "
            f"{speedup}x not gated (needs >= {MIN_CPUS} CPUs; {detail})"
        )
        print(f"replay speedup gate: SKIP (cpus={cpus} < {MIN_CPUS})")
        return 0
    if jobs < 2:
        print(f"replay speedup gate: SKIP (bench ran with jobs={jobs} < 2)")
        return 0
    if not timings.get("parallel", False):
        print(f"replay speedup gate: FAIL — pool never went parallel ({detail})")
        return 1
    if speedup <= MIN_SPEEDUP:
        print(
            f"replay speedup gate: FAIL — pooled_speedup {speedup}x <= "
            f"{MIN_SPEEDUP}x on a {cpus}-CPU runner ({detail})"
        )
        return 1
    print(f"replay speedup gate: OK ({speedup}x > {MIN_SPEEDUP}x; {detail})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
