"""Compare two sets of benchmark runs, one row per (metric, workload).

Usage::

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the JSON lines ``bench/run.py --out`` appends, one per
workload run; run several seeds into each file to make a set.  A row
compares the medians of the two sets.  An end-to-end metric is

* **worse** when the change's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``,
* **better** when it is better by more than the bound,
* **within bound** otherwise,
* **unresolved** when either set's spread (interquartile range over
  median) is wider than the bound, unless every run of one set is
  better than every run of the other.

Per-layer metrics have no bound: their rows show the change only, and
counts are marked ``exact`` when the runs of one seed agree in both
sets, else ``differs``.  The exit code is 1 when any row is worse,
else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Any, Optional

from harness import load_spec

COUNT_UNITS = ("count", "bytes")


def load_set(path: str) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """(workload, metric) -> the (seed, value) of every run in *path*."""
    values: dict[tuple[str, str], list[tuple[int, float]]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                result = json.loads(line)
                for name, metric in result["metrics"].items():
                    values[(result["workload"], name)].append((result["seed"], metric["value"]))
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return _relative(q3 - q1, statistics.median(values))


def _relative(delta: float, base: float) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf") * (1 if delta > 0 else -1)
    return delta / abs(base)


def worse_by(base: list[float], change: list[float], better: str) -> float:
    """How much worse the change's median is, as a share of the base's."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    return _relative(sign * (statistics.median(change) - base_median), base_median)


def classify(
    base: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """The status of one row and the change's relative worsening (>0 = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = worse_by(base, change, better)
    if max(spread(base), spread(change)) > bound:
        if all(sign * (c - b) < 0 for c in change for b in base):
            return "better", worse
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "worse", worse
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    if worse < -bound:
        return "better", worse
    return "within bound", worse


def rows(base_path: str, change_path: str) -> list[dict[str, Any]]:
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base, change = load_set(base_path), load_set(change_path)
    out = []
    for key in sorted(set(base) & set(change)):
        workload, name = key
        meta: Optional[dict[str, Any]] = e2e.get(name) or layer.get(name)
        if meta is None:
            continue
        a, b = [v for _, v in base[key]], [v for _, v in change[key]]
        row = {
            "workload": workload, "metric": name, "unit": meta["unit"],
            "base": statistics.median(a), "change": statistics.median(b),
            "spread": max(spread(a), spread(b)), "bound": meta.get("bound"),
        }
        if name in e2e:
            row["status"], row["worse_by"] = classify(a, b, meta["better"], meta["bound"])
        else:
            row["worse_by"] = worse_by(a, b, meta["better"])
            row["status"] = "-"
            if meta["unit"] in COUNT_UNITS:
                seeds: dict[int, set] = defaultdict(set)
                for seed, v in base[key] + change[key]:
                    seeds[seed].add(v)
                row["status"] = "exact" if all(len(v) == 1 for v in seeds.values()) else "differs"
        out.append(row)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    table = rows(*argv)
    print(f"{'workload':<15} {'metric':<28} {'unit':<6} {'base':>11} {'change':>11} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  status")
    for r in table:
        bound = f"{r['bound']:.0%}" if r["bound"] is not None else "-"
        print(f"{r['workload']:<15} {r['metric']:<28} {r['unit']:<6} {r['base']:>11.5g} "
              f"{r['change']:>11.5g} {r['worse_by']:>+9.1%} {r['spread']:>7.1%} {bound:>6}  "
              f"{r['status']}")
    return 1 if any(r["status"] == "worse" for r in table) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
