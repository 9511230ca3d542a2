"""Faulty-process localization over the parallel dynamic graph.

Message-passing programs run groups of behaviourally identical processes
(the ranks of an MPI communicator).  When one process misbehaves, its
*event subgraph* — the slice of the parallel dynamic graph (§6.1) owned
by that process — deviates from the group's, even when the program never
crashes.  Following Okita/Ino/Hagihara's AADEBUG'03 debugging tool and
MAD's event-graph analyses, this module:

1. **extracts** each process's subgraph (its sync nodes plus the internal
   edges between them) from a :class:`ParallelDynamicGraph`;
2. **canonicalizes** it into a behavioural :class:`ProcessSignature` —
   the sync-op sequence, the send/recv shape, and the per-sync-unit work
   and shared-variable footprint, with rank-specific digits folded out of
   object names (``res7 -> res#``) so replicas become comparable;
3. computes each peer group's **consensus** signature (modal op sequence,
   median shapes); and
4. **ranks** the group's processes by weighted deviation from consensus.

Signatures deliberately exclude schedule artifacts — ``unblock`` nodes,
vector clocks, timestamps — so for the process-group workloads
(:mod:`repro.workloads.mpi`), whose per-rank control flow is a pure
function of the program text, a signature is identical under every
scheduler seed.  Deviation is then evidence
about the *program*, not about the schedule.

Obs counters (zero-leak when :mod:`repro.obs` is off):

* ``graph.subgraph_extractions``  — per-process subgraph extractions
* ``graph.signature_builds``      — signatures canonicalized
* ``graph.consensus_compares``    — process-vs-consensus comparisons
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import TYPE_CHECKING, Optional

from ..obs import hooks as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.parallel_graph import ParallelDynamicGraph
    from ..runtime.machine import ExecutionRecord

#: Feature weights: protocol deviations (the op sequence, message shape)
#: indict harder than work-volume or footprint drift.
WEIGHTS = {"ops": 2.0, "shape": 1.5, "work": 1.0, "vars": 0.5}

#: Scores below this are schedule-level noise, not suspects.
SIGNIFICANT = 1e-9

#: Peer groups smaller than this have no usable consensus.
MIN_GROUP = 3

#: Work deviations within this many group-MADs of the median are treated
#: as rank-dependent data jitter, not evidence of a fault.
_SPREAD_TOLERANCE = 2

_DIGITS = re.compile(r"\d+")


def canonical_name(name: str) -> str:
    """Fold rank-specific digits out of an object name (``res7 -> res#``)."""
    return _DIGITS.sub("#", name)


@dataclass
class ProcessSignature:
    """The canonical behavioural signature of one process's subgraph."""

    pid: int
    name: str  # proc name ("rank7")
    group: str  # canonical proc name ("rank#")
    ops: tuple[str, ...]  # canonical sync-op sequence, unblocks excluded
    sends: dict[str, int]  # canonical channel -> send count
    recvs: dict[str, int]  # canonical channel -> recv count
    #: per-sync-unit work: statements executed plus shared-memory events
    work: tuple[int, ...]
    touched: frozenset  # canonical shared variables read or written

    @property
    def total_work(self) -> int:
        return sum(self.work)


@dataclass
class Consensus:
    """The consensus behaviour of one peer group."""

    group: str
    members: int
    ops: tuple[str, ...]  # modal op sequence
    shape: dict[str, int]  # per-channel median send/recv counts
    work: tuple[int, ...]  # element-wise median work per sync unit
    #: per-unit median absolute deviation of work — the group's *natural*
    #: spread (ranks work on rank-dependent data, so trip counts jitter);
    #: deviations within it are data, beyond it evidence
    spread: tuple[int, ...]
    touched: frozenset  # modal shared-variable footprint


@dataclass
class Suspect:
    """One process's deviation verdict against its group consensus."""

    pid: int
    name: str
    group: str
    score: float
    features: dict[str, float]  # per-feature deviation contributions
    diff: list[str] = field(default_factory=list)

    @property
    def is_significant(self) -> bool:
        return self.score > SIGNIFICANT


@dataclass
class LocalizeResult:
    """Ranked faulty-process localization over one execution."""

    suspects: list[Suspect]  # every grouped process, most deviant first
    consensuses: dict[str, Consensus]
    skipped: dict[str, list[int]]  # groups too small to have a consensus
    processes: int

    def top(self, k: int = 3) -> list[Suspect]:
        """The top-*k* significant suspects (deterministic order)."""
        return [s for s in self.suspects if s.is_significant][:k]

    @property
    def is_clean(self) -> bool:
        return not any(s.is_significant for s in self.suspects)

    def suspect_for(self, pid: int) -> Optional[Suspect]:
        for suspect in self.suspects:
            if suspect.pid == pid:
                return suspect
        return None

    # -- reports -----------------------------------------------------------

    def render(self, top_k: int = 3) -> str:
        """The user-facing report: verdict, ranking, and the top suspect's
        annotated diff against its group consensus."""
        lines = []
        groups = ", ".join(
            f"{name}×{c.members}" for name, c in sorted(self.consensuses.items())
        )
        lines.append(
            f"localize: {self.processes} process(es), "
            f"peer groups: {groups if groups else '(none)'}"
        )
        for group, pids in sorted(self.skipped.items()):
            members = ", ".join(f"P{pid}" for pid in pids)
            lines.append(
                f"  (group {group!r} has {len(pids)} member(s) — "
                f"too few for a consensus: {members})"
            )
        if not self.consensuses:
            lines.append("no peer group is large enough to localize against")
            return "\n".join(lines)
        top = self.top(top_k)
        if not top:
            lines.append(
                "all processes match their group consensus "
                "(no behavioural deviant)"
            )
            return "\n".join(lines)
        lines.append(f"top {len(top)} suspect(s):")
        for rank, suspect in enumerate(top, start=1):
            features = " ".join(
                f"{key}={value:.3f}"
                for key, value in sorted(suspect.features.items())
                if value > SIGNIFICANT
            )
            lines.append(
                f"  {rank}. P{suspect.pid} ({suspect.name}) "
                f"score {suspect.score:.3f}  [{features}]"
            )
        lines.append(f"deviation of P{top[0].pid} against consensus:")
        lines.extend(f"  {line}" for line in top[0].diff)
        return "\n".join(lines)

    def render_diff(self, pid: int) -> str:
        """The annotated per-process diff against its group consensus."""
        suspect = self.suspect_for(pid)
        if suspect is None:
            return f"P{pid} has no peer group (or no such process)"
        lines = [
            f"P{pid} ({suspect.name}) vs consensus of group "
            f"{suspect.group!r}: score {suspect.score:.3f}"
        ]
        lines.extend(f"  {line}" for line in suspect.diff)
        return "\n".join(lines)

    def to_json(self, top_k: int = 3) -> str:
        body = {
            "processes": self.processes,
            "groups": {
                name: {"members": c.members, "ops": len(c.ops)}
                for name, c in sorted(self.consensuses.items())
            },
            "skipped": {k: v for k, v in sorted(self.skipped.items())},
            "clean": self.is_clean,
            "suspects": [
                {
                    "rank": rank,
                    "pid": s.pid,
                    "name": s.name,
                    "group": s.group,
                    "score": round(s.score, 6),
                    "features": {
                        k: round(v, 6) for k, v in sorted(s.features.items())
                    },
                    "diff": s.diff,
                }
                for rank, s in enumerate(self.top(top_k), start=1)
            ],
        }
        return json.dumps(body, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# 1+2: subgraph extraction and signature canonicalization
# --------------------------------------------------------------------------


class _Folded(dict):
    """Name -> :func:`canonical_name`, folding each distinct name once."""

    def __missing__(self, name: str) -> str:
        folded = self[name] = canonical_name(name)
        return folded


def extract_signature(
    graph: "ParallelDynamicGraph", pid: int, name: str
) -> ProcessSignature:
    """Extract *pid*'s event subgraph and canonicalize it into a signature."""
    return _signature(graph, pid, name, _Folded())


def _signature(
    graph: "ParallelDynamicGraph", pid: int, name: str, fold: _Folded
) -> ProcessSignature:
    if _obs.enabled:
        _obs.on_subgraph_extract(pid)
    history = graph.history
    ops = []
    sends: Counter = Counter()
    recvs: Counter = Counter()
    unblocks = set()
    for uid in history.per_process.get(pid, ()):
        node = history.nodes[uid]
        op = node.op
        if op == "unblock":
            unblocks.add(uid)  # a schedule artifact (whether a send had to wait)
            continue
        obj = fold[node.obj]
        ops.append(f"{op}({obj})")
        if op == "send":
            sends[obj] += 1
        elif op == "recv":
            recvs[obj] += 1

    # Internal edges, merged across unblock boundaries: a blocked send
    # splits one program-level sync unit into two segments whose boundary
    # carries zero behaviour.  A trailing run that ends at an unblock
    # closes no unit, so neither its work nor its variables count.
    segments = graph.edges_of(pid)
    work = []
    pending = 0
    closed = 0
    for position, seg in enumerate(segments, start=1):
        pending += seg.step_count + seg.event_count
        if seg.end_uid not in unblocks:
            work.append(pending)
            pending = 0
            closed = position
    raw: set[str] = set()
    for seg in segments[:closed]:
        raw.update(seg.reads)
        raw.update(seg.writes)

    if _obs.enabled:
        _obs.on_signature_build(pid)
    return ProcessSignature(
        pid=pid,
        name=name,
        group=fold[name],
        ops=tuple(ops),
        sends=dict(sends),
        recvs=dict(recvs),
        work=tuple(work),
        touched=frozenset({fold[var] for var in raw}),
    )


# --------------------------------------------------------------------------
# 3: group consensus
# --------------------------------------------------------------------------


def _median(values: list[int]) -> int:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _shape_vector(sig: ProcessSignature) -> dict[str, int]:
    shape: dict[str, int] = {}
    for chan, count in sig.sends.items():
        shape[f"send:{chan}"] = count
    for chan, count in sig.recvs.items():
        shape[f"recv:{chan}"] = count
    return shape


def build_consensus(group: str, members: list[ProcessSignature]) -> Consensus:
    """The group's consensus: modal op sequence, median shape and work."""
    ops_votes = Counter(sig.ops for sig in members)
    # Modal sequence; ties break on the lexically smallest sequence so the
    # consensus is deterministic regardless of pid order.
    best = max(ops_votes.items(), key=lambda item: (item[1], item[0]))[0]

    keys = set()
    for sig in members:
        keys.update(_shape_vector(sig))
    shape = {
        key: _median([_shape_vector(sig).get(key, 0) for sig in members])
        for key in sorted(keys)
    }

    works = [sig.work for sig in members]
    depth = max(len(work) for work in works)
    columns = [
        [work[i] if i < len(work) else 0 for work in works]
        for i in range(depth)
    ]
    work = tuple(_median(column) for column in columns)
    spread = tuple(
        _median([abs(value - med) for value in column])
        for column, med in zip(columns, work)
    )
    touched_votes = Counter(sig.touched for sig in members)
    touched = max(touched_votes.items(), key=lambda item: (item[1], tuple(sorted(item[0]))))[0]
    return Consensus(
        group=group,
        members=len(members),
        ops=best,
        shape=shape,
        work=work,
        spread=spread,
        touched=touched,
    )


# --------------------------------------------------------------------------
# 4: deviation scoring and the annotated diff
# --------------------------------------------------------------------------


def _ops_diff(mine: tuple[str, ...], ref: tuple[str, ...]) -> tuple[float, list[str]]:
    """Normalized edit distance plus human-readable diff hunks."""
    if mine == ref:
        return 0.0, []
    matcher = SequenceMatcher(a=ref, b=mine, autojunk=False)
    edits = 0
    hunks: list[str] = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        edits += max(i2 - i1, j2 - j1)
        lost = ", ".join(ref[i1:i2])
        gained = ", ".join(mine[j1:j2])
        if tag == "delete":
            hunks.append(f"ops[{i1}]: missing {lost}")
        elif tag == "insert":
            hunks.append(f"ops[{i1}]: extra {gained}")
        else:
            hunks.append(f"ops[{i1}]: {lost} -> {gained}")
    distance = edits / max(len(mine), len(ref), 1)
    return distance, hunks


def compare_to_consensus(
    sig: ProcessSignature, consensus: Consensus
) -> Suspect:
    """Score one process's deviation from its group consensus."""
    if _obs.enabled:
        _obs.on_consensus_compare(sig.pid)
    diff: list[str] = []

    ops_dev, hunks = _ops_diff(sig.ops, consensus.ops)
    diff.extend(hunks)

    shape = _shape_vector(sig)
    shape_gap = 0
    shape_total = 0
    for key in sorted(set(shape) | set(consensus.shape)):
        mine, ref = shape.get(key, 0), consensus.shape.get(key, 0)
        shape_total += ref
        if mine != ref:
            shape_gap += abs(mine - ref)
            diff.append(f"{key.replace(':', 's on ', 1)}: {mine} (consensus {ref})")
    shape_dev = shape_gap / max(1, shape_total)

    work = sig.work
    depth = max(len(work), len(consensus.work))
    work_gap = 0
    for i in range(depth):
        mine = work[i] if i < len(work) else 0
        ref = consensus.work[i] if i < len(consensus.work) else 0
        tol = consensus.spread[i] if i < len(consensus.spread) else 0
        # Only deviation beyond the group's own per-unit spread counts:
        # within it is rank-dependent data, beyond it a work-level fault.
        work_gap += max(0, abs(mine - ref) - _SPREAD_TOLERANCE * tol)
    work_dev = work_gap / max(1, sum(consensus.work))
    if work_gap:
        diff.append(
            f"work per sync unit: {sig.total_work} total "
            f"(consensus {sum(consensus.work)}), gap {work_gap}"
        )

    sym = sig.touched.symmetric_difference(consensus.touched)
    vars_dev = len(sym) / max(1, len(sig.touched | consensus.touched))
    if sym:
        diff.append(f"shared footprint differs on: {', '.join(sorted(sym))}")

    features = {
        "ops": WEIGHTS["ops"] * ops_dev,
        "shape": WEIGHTS["shape"] * shape_dev,
        "work": WEIGHTS["work"] * work_dev,
        "vars": WEIGHTS["vars"] * vars_dev,
    }
    score = sum(features.values())
    if not diff:
        diff = ["(identical to consensus)"]
    return Suspect(
        pid=sig.pid,
        name=sig.name,
        group=sig.group,
        score=score,
        features=features,
        diff=diff,
    )


# --------------------------------------------------------------------------
# The whole pipeline
# --------------------------------------------------------------------------


def localize_graph(
    graph: "ParallelDynamicGraph", process_names: dict[int, str]
) -> LocalizeResult:
    """Localize over an already-built parallel dynamic graph."""
    fold = _Folded()
    signatures = [
        _signature(graph, pid, name, fold)
        for pid, name in sorted(process_names.items())
    ]
    groups: dict[str, list[ProcessSignature]] = {}
    for sig in signatures:
        groups.setdefault(sig.group, []).append(sig)

    consensuses: dict[str, Consensus] = {}
    skipped: dict[str, list[int]] = {}
    suspects: list[Suspect] = []
    for group in sorted(groups):
        members = groups[group]
        if len(members) < MIN_GROUP:
            skipped[group] = [sig.pid for sig in members]
            continue
        consensus = build_consensus(group, members)
        consensuses[group] = consensus
        suspects.extend(compare_to_consensus(sig, consensus) for sig in members)

    # Most deviant first; pid ascending breaks ties deterministically.
    suspects.sort(key=lambda s: (-s.score, s.pid))
    return LocalizeResult(
        suspects=suspects,
        consensuses=consensuses,
        skipped=skipped,
        processes=len(process_names),
    )


def localize_record(record: "ExecutionRecord") -> LocalizeResult:
    """Localize over an execution record (builds the graph view)."""
    from ..core.parallel_graph import ParallelDynamicGraph

    graph = ParallelDynamicGraph.from_history(record.history)
    return localize_graph(graph, record.process_names)
