"""Runs one workload in a fresh process and prints its result as JSON.

``run.py`` starts ``python bench/worker.py CONFIG_JSON`` once per
workload, with ``src/`` on ``PYTHONPATH`` and the ``PPD_*`` environment
variables removed.  The config names the workload, base seed, seconds to
measure, whether to trace, the smoke flag, the scratch directory, an
optional spans file, and the CPU to pin the run to (untraced runs only).

An untraced run measures the end-to-end metrics.  A traced run first
measures them untraced for half its time, then traced for the other
half, and reports the per-layer metrics from the traced half and the
difference between the halves as ``bench.trace_overhead``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

from repro.obs.trace import TraceCollector
from repro.server import DebugClient

import local
import served
from harness import (
    Ops,
    Recorder,
    Reference,
    load_spec,
    metric_units,
    normalised,
    paired,
    peak_rss_mb,
    self_times,
    unattributed_share,
)

#: Iterations every phase runs even when its time is up.
MIN_ITERATIONS = 3
#: Smoke sizes: local iterations, served rounds, daemon cold starts.
SMOKE_ITERATIONS = 2
SMOKE_ROUNDS = 5
SMOKE_STARTS = 2
#: Cold daemon starts timed for the served workload's ``setup_s``.
SETUP_STARTS = 10
#: Sessions a local workload's traced run serves to time the server layer.
TRACED_SESSIONS = 4

#: End-to-end timing metrics and the step each one times.
E2E_STEPS = {
    "setup_s": "setup",
    "record_s": "record",
    "reload_s": "reload",
    "first_answer_s": "first_answer",
    "session_s": "session",
}
#: Layer calls reported as ``<name>_s``.
LAYER_STEPS = (
    "lang.parse", "compiler.compile", "vm.lower", "runtime.plain", "persist.save",
    "persist.load", "core.session_init", "core.start", "core.flowback", "core.expand",
    "core.races", "analysis.localize", "perf.serial_replay", "perf.pooled_replay",
    "perf.warm_replay", "perf.replay_cli",
)
#: Served verbs reported as ``server.<verb>_ms``.
SERVER_VERBS = ("open", "where", "why", "races", "localize", "expandable", "stats", "close")


class Run:
    """One workload run: its phases' recorders and what they observed."""

    def __init__(self, cfg: dict[str, Any]) -> None:
        self.name: str = cfg["workload"]
        self.seed: int = cfg["seed"]
        self.smoke: bool = cfg["smoke"]
        self.trace: bool = cfg["trace"]
        self.workdir = Path(cfg["workdir"])
        self.phase_s = cfg["seconds"] / (2 if self.trace else 1)
        self.ops = Ops()
        self.collector: Optional[TraceCollector] = TraceCollector() if self.trace else None
        self.untraced = Recorder(self.name)
        #: The traced half of the work ``untraced`` measures, and the
        #: recorder of the traced layer calls that work does not make.
        self.traced: Optional[Recorder] = None
        self.traced_aux: Optional[Recorder] = None
        #: Counts of the first traced iteration (seed = base seed).
        self.counts: dict[str, int] = {}
        self.extras: dict[str, float] = {}

    def guarded(self, what: str, fn, *args) -> Any:
        try:
            return fn(*args)
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.ops.fail(f"{what}: {type(error).__name__}: {error}")
            return None


def run_local(run: Run, ref: Reference) -> None:
    w = local.WORKLOADS[run.name]

    def phase(rec: Recorder, traced: bool) -> None:
        deadline = time.monotonic() + run.phase_s
        i = 0
        while i < SMOKE_ITERATIONS if run.smoke else (
            i < MIN_ITERATIONS or time.monotonic() < deadline
        ):
            # Garbage left by the last iteration is collected here, not
            # inside this one's timings: each starts from the same heap.
            gc.collect()
            rec.begin(i, ref.sample())
            counts = run.guarded(
                f"iteration {i}", local.iteration, w, rec, run.ops, run.seed + i, run.workdir,
                traced,
            )
            if traced and i == 0 and counts:
                run.counts = counts
            i += 1

    run.guarded("warm-up", local.iteration, w, Recorder(run.name), run.ops, run.seed,
                run.workdir, False, True)
    phase(run.untraced, False)
    run.extras["peak_rss_mb"] = peak_rss_mb()
    if not run.trace:
        return
    run.traced = Recorder(run.name, run.collector)
    phase(run.traced, True)
    run.traced_aux = run.traced.sibling()
    run.guarded("served sessions", _serve_locally, run, ref, run.traced_aux, w)


def _serve_locally(run: Run, ref: Reference, rec: Recorder, w: local.LocalWorkload) -> None:
    """Time the server layer on a local workload's own program."""
    t = served.target(run.name, w, run.seed)
    with served.Daemon(run.workdir / "daemon.log") as daemon:
        daemon.start(rec)
        with DebugClient.connect(daemon.addr) as client:
            for k in range(TRACED_SESSIONS):
                rec.begin(k, ref.sample())
                stats = served.session(client, rec, run.ops, t, upload=k % 2 == 1)
            _server_extras(run, client, t, stats)


def _server_extras(run: Run, client: DebugClient, t: served.Target, stats: str) -> None:
    counters = served.server_counters(client, t)
    run.extras["perf.cache_hit_ratio"] = served.cache_hit_ratio(stats)
    run.extras["server.requests"] = counters.get("server.requests", 0)
    run.extras["server.request_errors"] = counters.get("server.request_errors", 0)


def run_served(run: Run, ref: Reference) -> None:
    targets = [
        served.target(name, w, run.seed + k)
        for name, w in local.MIX.items()
        for k in range(served.SEEDS)
    ]
    with served.Daemon(run.workdir / "daemon.log") as daemon:
        for k in range(SMOKE_STARTS if run.smoke else SETUP_STARTS):
            daemon.stop()
            run.untraced.begin(k, ref.sample())
            daemon.start(run.untraced)
        conns = [served.Connection(daemon.addr) for _ in range(served.CONNECTIONS)]
        try:
            for conn in conns:
                conn.start()
            _serve_rounds(run, ref, daemon, conns, targets)
        finally:
            for conn in conns:
                conn.close()
                run.ops.attempted += conn.ops.attempted
                run.ops.failed += conn.ops.failed
                run.ops.errors += conn.ops.errors[: 5 - len(run.ops.errors)]


def _serve_rounds(run: Run, ref: Reference, daemon: served.Daemon,
                  conns: list[served.Connection], targets: list[served.Target]) -> None:
    cycle = len(targets) // len(conns)
    served.run_rounds(conns, Recorder(run.name), targets, ref, 0.0, 1 if run.smoke else cycle)
    limit = SMOKE_ROUNDS if run.smoke else None
    deadline = time.monotonic() + run.phase_s
    served.run_rounds(conns, run.untraced, targets, ref, deadline, limit)
    if run.trace:
        run.traced = Recorder(run.name, run.collector)
        run.traced_aux = run.traced.sibling()
        for k, w in enumerate(local.MIX.values()):
            run.traced_aux.begin(k, ref.sample())
            counts = run.guarded(
                f"layer calls {k}", local.iteration, w, run.traced_aux, run.ops, run.seed,
                run.workdir, True
            )
            if k == 0 and counts:
                run.counts = counts
        deadline = time.monotonic() + run.phase_s
        served.run_rounds(conns, run.traced, targets, ref, deadline, limit)
    run.extras["peak_rss_mb"] = daemon.peak_rss_mb()
    with DebugClient.connect(daemon.addr) as client:
        _server_extras(run, client, targets[0], conns[0].last_stats)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _scaled(summary: dict[str, Any], factor: float) -> dict[str, Any]:
    out = dict(summary)
    for key in ("value", "raw_median", "q_value"):
        if key in out:
            out[key] *= factor
    return out


def e2e_metrics(run: Run) -> dict[str, dict[str, Any]]:
    rec = run.untraced
    metrics = {name: paired(rec.samples[step]) for name, step in E2E_STEPS.items()}
    metrics["query_p90_ms"] = _scaled(paired(rec.samples["query"], q=90), 1000)
    sessions = served.CONNECTIONS if run.name == "served" else 1
    script = paired(rec.samples["script"])
    metrics["sessions_per_s"] = {
        "value": sessions / script["value"],
        "n": script["n"],
        "raw_median": sessions / script["raw_median"],
    }
    metrics["peak_rss_mb"] = {"value": run.extras["peak_rss_mb"]}
    return metrics


def layer_metrics(run: Run, ref: Reference) -> dict[str, dict[str, Any]]:
    recs = (run.traced, run.traced_aux)
    samples: dict[str, list] = {}
    for rec in recs:
        for name, pairs in rec.samples.items():
            samples.setdefault(name, []).extend(pairs)
    metrics = {f"{step}_s": paired(samples[step]) for step in LAYER_STEPS}
    for verb in SERVER_VERBS:
        metrics[f"server.{verb}_ms"] = _scaled(paired(samples[f"server.{verb}"]), 1000)

    layer_rec = next(rec for rec in recs if "runtime.plain" in rec.by_iteration)

    def per_iteration(fn, a: str, b: str) -> float:
        times_a, times_b = layer_rec.by_iteration[a], layer_rec.by_iteration[b]
        return statistics.median(
            fn(times_a[i], times_b[i], layer_rec.refs[i]) for i in set(times_a) & set(times_b)
        )

    metrics["runtime.logging_overhead"] = {
        "value": per_iteration(lambda logged, plain, r: logged / plain - 1,
                               "runtime.logged_run", "runtime.plain")
    }
    metrics["runtime.steps_per_s"] = {
        "value": run.counts["runtime.steps"] / metrics["runtime.plain_s"]["value"]
    }
    metrics["perf.pool_speedup"] = {
        "value": per_iteration(lambda serial, pooled, r: serial / pooled,
                               "perf.serial_replay", "perf.pooled_replay")
    }
    metrics["perf.pool_startup_s"] = {
        "value": per_iteration(lambda pooled, warm, r: normalised([(pooled - warm, r, "")])[0],
                               "perf.pooled_replay", "perf.warm_replay")
    }
    for name, count in run.counts.items():
        metrics[name] = {"value": count}
    for name in ("perf.cache_hit_ratio", "server.requests", "server.request_errors"):
        metrics[name] = {"value": run.extras[name]}

    steps = [step for step in E2E_STEPS.values()
             if run.untraced.samples.get(step) and run.traced.samples.get(step)]
    untraced = sum(paired(run.untraced.samples[step])["value"] for step in steps)
    traced = sum(paired(run.traced.samples[step])["value"] for step in steps)
    metrics["bench.trace_overhead"] = {"value": traced / untraced - 1}
    metrics["bench.ref_s"] = {"value": statistics.median(ref.samples), "n": len(ref.samples)}
    metrics["bench.unattributed_share"] = {"value": unattributed_share(_spans(run))}
    return metrics


def _spans(run: Run) -> list[dict[str, Any]]:
    return [
        {"name": r.name, "dur": r.dur, **r.attrs}
        for r in run.collector.records
        if r.kind == "span"
    ]


def main(cfg: dict[str, Any]) -> dict[str, Any]:
    if cfg.get("cpu") is not None:
        os.sched_setaffinity(0, {cfg["cpu"]})
    run = Run(cfg)
    with Reference() as ref:
        if run.name == "served":
            run.guarded("served", run_served, run, ref)
        else:
            run_local(run, ref)
        try:
            metrics = layer_metrics(run, ref) if run.trace else e2e_metrics(run)
        except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError,
                StopIteration) as error:
            run.ops.fail(f"metrics: {type(error).__name__}: {error}")
            metrics = {}
    spec = load_spec()
    units = metric_units(spec)
    required = [m["name"] for m in spec["per_layer" if run.trace else "end_to_end"]]
    missing = [name for name in required if name not in metrics]
    if missing and metrics:
        run.ops.fail(f"metrics not measured: {', '.join(missing)}")
    result: dict[str, Any] = {
        "workload": run.name,
        "correct": run.ops.failed == 0,
        "attempted": max(1, run.ops.attempted),
        "failed": run.ops.failed,
        "errors": run.ops.errors,
        "metrics": {
            name: {**metrics[name], "unit": units[name]} for name in required if name in metrics
        },
    }
    if run.trace:
        spans = _spans(run)
        table = self_times(spans)
        result["self_time"] = sorted(
            ([name, row["layer"], row["self_s"], row["n"]] for name, row in table.items()),
            key=lambda row: -row[2],
        )
        if cfg.get("spans"):
            with open(cfg["spans"], "a", encoding="utf-8") as handle:
                for record in run.collector.records:
                    handle.write(record.to_json() + "\n")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
