"""The reference workload every timed sample is paired with.

Run it as ``python -I bench/sidecar.py``.  Each line read from stdin runs
the fixed reference loop once and answers with its wall time in seconds
on one line of stdout.  The loop mixes dict, str and int work, the same
kinds of work the debugger does, so a slower or busier machine slows
both alike.

This file imports only the standard library and never the program under
test: with ``-I`` neither ``PYTHONPATH`` nor the script's directory is on
``sys.path``, so no change to the program can move the yardstick.
"""

import sys
import time

#: Loop trip count: about 7 ms on a 2-vCPU KVM guest (Xeon, 2.0 GHz), CPython 3.11.
ITERATIONS = 24_000


def reference_loop(iterations: int = ITERATIONS) -> int:
    table = {}
    total = 0
    for i in range(iterations):
        key = "k" + str(i % 509)
        table[key] = table.get(key, 0) + i
        total += len(key) * (i & 15)
    return total + len(table)


def main() -> int:
    for _line in sys.stdin:
        started = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - started
        sys.stdout.write(f"{elapsed!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
