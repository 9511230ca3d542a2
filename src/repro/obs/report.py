"""Aggregation and rendering of observability data.

Two sources feed a report:

* an :class:`ExecutionRecord` (and optionally a :class:`PPDSession`) —
  always available, even with hooks disabled, because the machine keeps
  its per-process logs and scheduler totals as part of VM semantics;
* the hook registry — populated only while :func:`repro.obs.enable` is on.

``build_report`` merges whatever it is given into one plain dict;
``render_report`` turns it into the text ``ppd stats`` prints, and
``report_to_json`` is the machine-readable form CI diffs.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .metrics import MetricsRegistry


def build_report(
    record: Optional[Any] = None,
    session: Optional[Any] = None,
    registry: Optional[MetricsRegistry] = None,
) -> dict[str, Any]:
    """Aggregate record/session/registry views into one report dict."""
    report: dict[str, Any] = {}
    if record is not None:
        report["execution"] = {
            "mode": record.mode,
            "seed": record.seed,
            "steps": record.total_steps,
            "processes": len(record.process_names),
            "preemptions": record.preemptions,
            "context_switches": record.context_switches,
            "sync_nodes": len(record.history.nodes),
        }
        per_process = {}
        for pid in sorted(record.logs):
            log = record.logs[pid]
            per_process[pid] = {
                "name": record.process_names.get(pid, f"P{pid}"),
                "entries": len(log),
                "bytes": log.byte_size(),
                "by_kind": log.entry_counts(),
            }
        report["log"] = {
            "total_entries": record.log_entry_count(),
            # == record.log_bytes(), without serialising every log again
            "total_bytes": sum(info["bytes"] for info in per_process.values()),
            "per_process": per_process,
        }
    if session is not None:
        report["debugging"] = {
            "replays": session.replay_count(),
            "events_generated": session.events_generated,
            "graph_nodes": len(session.graph.nodes),
            "subgraph_expansions": len(session.graph.expansions),
        }
    if registry is not None and len(registry):
        report["counters"] = registry.snapshot()
    return report


def render_report(report: dict[str, Any]) -> str:
    """The human-readable form (the default ``ppd stats`` output)."""
    lines: list[str] = []
    execution = report.get("execution")
    if execution:
        lines.append(
            "execution: {steps} steps, {processes} process(es), "
            "{sync_nodes} sync nodes [mode={mode}, seed={seed}]".format(**execution)
        )
        lines.append(
            "scheduler: {preemptions} preemptions, "
            "{context_switches} context switches".format(**execution)
        )
    log = report.get("log")
    if log:
        lines.append(
            f"log: {log['total_entries']} entries, {log['total_bytes']} bytes total"
        )
        for pid, info in log["per_process"].items():
            kinds = ", ".join(
                f"{kind}={count}" for kind, count in sorted(info["by_kind"].items())
            )
            lines.append(
                f"  P{pid} ({info['name']}): {info['bytes']} bytes, "
                f"{info['entries']} entries" + (f" [{kinds}]" if kinds else "")
            )
    debugging = report.get("debugging")
    if debugging:
        lines.append(
            "debugging: {replays} e-block replay(s), {events_generated} events "
            "regenerated, {graph_nodes} graph nodes, "
            "{subgraph_expansions} expansion(s)".format(**debugging)
        )
    counters = report.get("counters")
    if counters:
        lines.append("obs counters:")
        for name, value in counters.items():
            if isinstance(value, float):
                lines.append(f"  {name} = {value:.6f}")
            else:
                lines.append(f"  {name} = {value}")
    return "\n".join(lines) if lines else "(nothing to report)"


def report_to_json(report: dict[str, Any]) -> str:
    """Machine-readable rendering (sorted keys, stable across runs)."""
    return json.dumps(report, indent=2, sort_keys=True, default=str)


def deterministic_counters(registry: MetricsRegistry) -> dict[str, Any]:
    """The registry snapshot minus wall-clock-derived values.

    This is what ``BENCH_obs.json`` stores and what the CI regression
    gate compares: counts and bytes are reproducible for a fixed seed,
    timer durations are not.
    """
    snapshot = registry.snapshot()
    return {
        name: value
        for name, value in snapshot.items()
        if not name.partition("{")[0].endswith(".seconds")
        and not name.endswith(("_s", ".total_s", ".mean_s", ".max_s", ".min_s"))
    }
