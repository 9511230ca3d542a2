"""End-to-end benchmark of the PPD pipeline.

Usage, from the root of a checkout::

    python3 bench/run.py [--workload W]... [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE] [--spans FILE]

Each workload runs in its own fresh ``bench/worker.py`` process with
``src/`` on ``PYTHONPATH``.  ``--trace 0`` (the default) reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics and a
self-time table per workload.  Every metric is printed with its unit;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (metric names are prefixed
with ``<workload>/`` when several workloads ran).  ``--out`` appends one
JSON line per workload, the input of ``bench/compare.py``; ``--spans``
appends the traced run's spans as JSON lines.  The exit code is 0 when
every operation succeeded and every answer was right, 1 otherwise, and 2
when the checkout has no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

from harness import BENCH_DIR, ROOT, load_spec

#: Environment variables that would change what the program does.
_PROGRAM_ENV = ("PPD_CACHE_DIR", "PPD_FAULTS", "PPD_FAULTS_SEED", "PPD_VM_FASTPATH")
#: Scratch space for saved records, daemon spools and pool temp files.
WORK_DIR = ROOT / ".bench_tmp"


def child_env(workdir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def run_child(config: dict[str, Any], env: dict[str, str]) -> dict[str, Any]:
    """Run one workload in a fresh process; returns its result.

    The worker leads its own process group, so a worker that overruns
    its time is killed together with the sidecar and daemon it started.
    """
    timeout = 2 * config["seconds"] + 120
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _broken(config, f"worker timed out after {timeout}s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-5:]
        return _broken(config, f"worker exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def _broken(config: dict[str, Any], message: str) -> dict[str, Any]:
    return {"workload": config["workload"], "correct": False, "attempted": 1, "failed": 1,
            "errors": [message], "metrics": {}}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict[str, Any]) -> None:
    """Print one workload's metrics (and self-time table) for a reader."""
    print(f"== {result['workload']}: {result['attempted']} operations, "
          f"{result['failed']} failed")
    for error in result.get("errors", []):
        print(f"   error: {error}")
    for name, m in result["metrics"].items():
        extra = ""
        if "n" in m:
            extra = f"  (n={m['n']}"
            if "q" in m:
                extra += f", p{m['q']}={_fmt(m['q_value'])}"
            if "raw_median" in m:
                extra += f", raw median={_fmt(m['raw_median'])}"
            extra += ")"
        print(f"   {name:<28} {_fmt(m['value']):>12} {m['unit']:<6}{extra}")
    if result.get("self_time"):
        total = sum(row[2] for row in result["self_time"]) or 1.0
        print(f"   {'self time by span':<28} {'s':>12} {'share':>7} {'n':>6}  layer")
        for name, layer, self_s, n in result["self_time"]:
            print(f"   {name:<28} {self_s:>12.4f} {self_s / total:>7.1%} {n:>6}  {layer}")


def summary_line(results: list[dict[str, Any]]) -> dict[str, Any]:
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}/{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
        for r in results
        for name, m in r["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="base seed of the inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="seconds each workload measures (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="2 local iterations and 10 served scripts per workload")
    parser.add_argument("--out", help="append one JSON result line per workload")
    parser.add_argument("--spans", help="append the traced run's spans as JSON lines")
    args = parser.parse_args(argv)

    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in args.workload or names:
            config = {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "smoke": args.smoke, "workdir": str(workdir),
                "spans": os.path.abspath(args.spans) if args.spans else None,
                "cpu": None if args.trace else max(os.sched_getaffinity(0)),
            }
            result = run_child(config, child_env(workdir))
            result.update(seed=args.seed, trace=args.trace, smoke=args.smoke,
                          seconds=args.seconds)
            report(result)
            results.append(result)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(result) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    line = summary_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
