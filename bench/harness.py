"""Shared pieces of the end-to-end benchmark.

* the metric table, read from ``BENCHMARK.json`` at the checkout root;
* :class:`Reference`, the client of the reference sidecar;
* :func:`paired`, the pairing rule: every timed sample ``T_i`` is taken
  right next to a reference sample ``R_i`` and a timing's value is
  ``median(T_i * (REF_NOMINAL_S / R_i) ** REF_ELASTICITY)``, seconds at
  nominal machine speed;
* :class:`Recorder`, which times every benchmark step and, in a traced
  run, also records it as a span with its parent.

Nothing here imports the program under test.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Median wall time of one reference loop (``bench/sidecar.py``) on the
#: machine the benchmark was defined on: 6,238 samples over 40 runs on a
#: 2-vCPU KVM guest (Xeon, 2.0 GHz) with CPython 3.11.  Measured once
#: and never re-measured: it only turns the dimensionless ``T / R``
#: ratios back into seconds.
REF_NOMINAL_S = 0.00734

#: How closely the program's times follow the reference loop's.  When
#: other tenants contend for the machine, they slow the tight reference
#: loop more than they slow the debugger's allocation-heavy work, so a
#: full correction (1.0) over-corrects.  Over 10 seeds per workload,
#: the worst spread of the end-to-end timings was 19% at 1.0 and 10% at
#: 0.85 in a contended period, and 7.9% against 8.6% in a calm one.
REF_ELASTICITY = 0.85

#: Quantiles a timing may report beside its median, highest first.
_QUANTILES = (99, 95, 90, 75, 50)

#: Span layer of the end-to-end steps; every other span is a layer call.
E2E_LAYER = "e2e"


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict[str, Any]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# The reference sidecar
# ----------------------------------------------------------------------


class Reference:
    """Runs the reference loop in a separate ``python -I`` process."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH_DIR / "sidecar.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the loop once; returns its wall time in seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference sidecar exited")
        seconds = float(line)
        self.samples.append(seconds)
        return seconds

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Paired statistics
# ----------------------------------------------------------------------


def high_quantile(n: int) -> Optional[int]:
    """The highest reported percentile with at least ten samples beyond it."""
    for q in _QUANTILES:
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of *values*."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def normalised(samples: list[tuple]) -> list[float]:
    """Each ``T_i`` in seconds at nominal machine speed, by its ``R_i``."""
    return [t * (REF_NOMINAL_S / r) ** REF_ELASTICITY for t, r, _ in samples]


def paired(samples: list[tuple], q: Optional[float] = None) -> dict[str, Any]:
    """Summarise ``(T_i, R_i, group)`` samples by the pairing rule.

    Within each group the statistic is the median of the normalised
    samples, or their *q*-th percentile when *q* is given; ``value`` is
    the mean of the groups' statistics.  Groups keep a mix of unlike
    operations (different programs, different questions) from deciding
    a median by where it falls between them.  ``raw_median`` is the
    median of the ``T_i`` alone (reported, never gated); ``q_value`` is
    the highest percentile with at least ten normalised samples beyond
    it, over all groups.
    """
    groups: dict[str, list[tuple]] = defaultdict(list)
    for sample in samples:
        groups[sample[2]].append(sample)
    per_group = [
        statistics.median(values) if q is None else quantile(values, q)
        for values in (normalised(group) for group in groups.values())
    ]
    values = normalised(samples)
    n = len(values)
    summary: dict[str, Any] = {
        "value": statistics.fmean(per_group),
        "n": n,
        "raw_median": statistics.median(t for t, _, _ in samples),
    }
    top = high_quantile(n)
    if top is not None:
        summary["q"] = top
        summary["q_value"] = quantile(values, top)
    return summary


def peak_rss_mb(pid: str = "self") -> float:
    """The VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Operations, timing and spans
# ----------------------------------------------------------------------


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


class Ops:
    """Counts attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            raise CheckFailed(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


@dataclass
class Timing:
    """What a timed step measured; ``seconds`` is set when it ends."""

    seconds: float = 0.0


class Recorder:
    """Times benchmark steps; in a traced run also records them as spans.

    Every step's wall time is kept as a ``(T, R, group)`` sample under
    its name, ``R`` being the reference sample of the current iteration
    and ``group`` what :func:`paired` summarises separately, and as ``T``
    under its iteration.  With a ``collector`` (a
    :class:`repro.obs.trace.TraceCollector`), each step is also a span
    whose attributes carry the workload, iteration, layer, span id and
    parent span id.  Steps nest per thread.
    """

    def __init__(self, workload: str, collector: Any = None) -> None:
        self.workload = workload
        self.collector = collector
        self.iteration = 0
        self.ref = REF_NOMINAL_S
        self.samples: dict[str, list[tuple[float, float, str]]] = defaultdict(list)
        self.by_iteration: dict[str, dict[int, float]] = defaultdict(dict)
        self.refs: dict[int, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def sibling(self) -> "Recorder":
        """A recorder with its own samples, writing to the same spans."""
        other = Recorder(self.workload, self.collector)
        other._ids = self._ids
        return other

    def begin(self, iteration: int, ref: float) -> None:
        """Start an iteration whose steps pair with reference sample *ref*."""
        self.iteration = iteration
        self.ref = self.refs[iteration] = ref

    def add(self, name: str, seconds: float, group: str = "") -> None:
        with self._lock:
            self.samples[name].append((seconds, self.ref, group))
            self.by_iteration[name][self.iteration] = seconds

    @contextmanager
    def span(self, name: str, layer: str, group: str = "") -> Iterator[Timing]:
        timing = Timing()
        if self.collector is None:
            started = time.perf_counter()
            yield timing
            timing.seconds = time.perf_counter() - started
            self.add(name, timing.seconds, group)
            return
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        attrs = {
            "workload": self.workload,
            "iteration": self.iteration,
            "layer": layer,
            "span_id": span_id,
            "parent_id": stack[-1] if stack else 0,
        }
        stack.append(span_id)
        try:
            with self.collector.span(name, **attrs):
                started = time.perf_counter()
                yield timing
                timing.seconds = time.perf_counter() - started
        finally:
            stack.pop()
        self.add(name, timing.seconds, group)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def self_times(spans: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: layer, total duration, and self time (duration not
    covered by child spans)."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        child_time[span["parent_id"]] += span["dur"]
    table: dict[str, dict[str, Any]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"layer": span["layer"], "total_s": 0.0, "self_s": 0.0, "n": 0}
        )
        row["total_s"] += span["dur"]
        row["self_s"] += span["dur"] - child_time[span["span_id"]]
        row["n"] += 1
    return table


def unattributed_share(spans: list[dict[str, Any]]) -> float:
    """The share of end-to-end time that no layer span covers.

    End-to-end spans may nest (a served ``first_answer`` holds its
    ``record``), so the total is taken over the outermost ones only.
    """
    layer_of = {span["span_id"]: span["layer"] for span in spans}
    uncovered = sum(
        row["self_s"] for row in self_times(spans).values() if row["layer"] == E2E_LAYER
    )
    total = sum(
        span["dur"]
        for span in spans
        if span["layer"] == E2E_LAYER and layer_of.get(span["parent_id"]) != E2E_LAYER
    )
    return uncovered / total if total else 0.0
