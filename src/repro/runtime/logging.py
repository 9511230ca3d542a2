"""Execution-phase logs: prelogs, postlogs, and sync prelogs (§3.2.2, §5).

"Among the log entries are postlogs, which record the changes in the
program state since the last logging point and prelogs, which record the
values of the variables that might be read-accessed before the next
logging point."

There is one :class:`LogFile` per process (§5.6).  Log entries are small
value snapshots — the whole point of incremental tracing is that this is
*all* that execution pays for; full traces are regenerated on demand during
the debugging phase.

A synchronization event is logged once: its :class:`SyncLog` entry *is*
the node of the synchronization history (§6.1).  No entry carries a
vector clock; :class:`~repro.runtime.tracing.SyncHistory` derives clocks
from program order and the sync edges when an ordering question asks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs import hooks as _obs
from .values import PCLArray


def encode_value(value: Any) -> Any:
    """JSON-encodable form of a runtime value.

    Recurses through containers so arrays nested inside argument lists
    (rendezvous/accept payloads) and inside other arrays round-trip too.
    """
    if isinstance(value, PCLArray):
        return {
            "__array__": value.name,
            "type": value.elem_type,
            "items": [encode_value(item) for item in value.items],
        }
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (recursive, like the encoder)."""
    if isinstance(value, dict) and "__array__" in value:
        array = PCLArray(value["__array__"], value["type"], len(value["items"]))
        array.items = [decode_value(item) for item in value["items"]]
        return array
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: decode_value(item) for key, item in value.items()}
    return value


def copy_value(value: Any) -> Any:
    """A log-safe copy of one runtime value: deep through arrays and
    containers, identity for scalars.  Values must be copied the moment
    they are logged — the program keeps running and may mutate them."""
    if isinstance(value, PCLArray):
        return value.copy()
    if isinstance(value, list):
        return [copy_value(item) for item in value]
    if isinstance(value, dict):
        return {key: copy_value(item) for key, item in value.items()}
    return value


def snapshot_values(values: dict[str, Any]) -> dict[str, Any]:
    """Deep-copy a value dict so later mutation cannot corrupt the log."""
    return {name: copy_value(value) for name, value in values.items()}


@dataclass
class LogEntry:
    """Base class for all log entries.

    ``timestamp`` is a machine-global monotonic counter, giving a total
    order consistent with each interleaved execution (used by state
    restoration, §5.7).
    """

    timestamp: int
    pid: int

    @property
    def kind(self) -> str:
        return type(self).__name__

    def payload(self) -> dict[str, Any]:
        """The JSON-serialisable body of this entry (without metadata)."""
        return {}

    def to_dict(self) -> dict[str, Any]:
        """The JSON line of this entry, before the dump."""
        body = {"kind": self.kind, "t": self.timestamp, "pid": self.pid}
        body.update(self.payload())
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), default=encode_value)


@dataclass
class Prelog(LogEntry):
    """Start-of-e-block snapshot: values of the USED set (§5.1)."""

    interval_id: int = 0
    block_node_id: int = 0
    block_kind: str = "proc"  # "proc" | "loop"
    proc_name: str = ""
    values: dict[str, Any] = field(default_factory=dict)
    args: list[Any] = field(default_factory=list)  # actual parameters, in order
    steps: int = 0  # process-local statement count at prelog time

    def payload(self) -> dict[str, Any]:
        return {
            "interval": self.interval_id,
            "block": self.block_node_id,
            "block_kind": self.block_kind,
            "proc": self.proc_name,
            "values": {k: encode_value(v) for k, v in self.values.items()},
            "args": [encode_value(a) for a in self.args],
            "steps": self.steps,
        }


@dataclass
class Postlog(LogEntry):
    """End-of-e-block snapshot: values of the DEFINED set plus the return
    value (§5.1); also the raw material of state restoration (§5.7)."""

    interval_id: int = 0
    values: dict[str, Any] = field(default_factory=dict)
    retval: Any = None
    has_retval: bool = False
    steps: int = 0  # process-local statement count at postlog time

    def payload(self) -> dict[str, Any]:
        return {
            "interval": self.interval_id,
            "values": {k: encode_value(v) for k, v in self.values.items()},
            "retval": encode_value(self.retval),
            "has_retval": self.has_retval,
            "steps": self.steps,
        }


@dataclass
class SyncPrelog(LogEntry):
    """Extra prelog at a synchronization-unit start (§5.5): the values of
    the shared variables the unit may read."""

    site_node_id: int = 0  # AST node of the unit-starting statement (0 = proc entry)
    proc_name: str = ""
    values: dict[str, Any] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        return {
            "site": self.site_node_id,
            "proc": self.proc_name,
            "values": {k: encode_value(v) for k, v in self.values.items()},
        }


@dataclass
class InputLog(LogEntry):
    """A nondeterministic input consumed by the process: ``input()``,
    ``rand()``, or the value delivered by ``recv``.  Logged so the emulation
    package can replay it (§5.1: "the same input as originally fed")."""

    source: str = "input"  # "input" | "rand" | "recv"
    node_id: int = 0
    value: Any = None

    def payload(self) -> dict[str, Any]:
        return {"source": self.source, "node": self.node_id, "value": encode_value(self.value)}


@dataclass
class SyncLog(LogEntry):
    """A synchronization node of the parallel dynamic graph (§6.1), and the
    log entry of its process for it: one object per synchronization event.

    The node lives in the :class:`~repro.runtime.tracing.SyncHistory`; the
    log names it by ``uid``.  ``timestamp`` is the machine-global step
    counter at the event.
    """

    uid: int = 0
    #: "P" | "V" | "lock" | "unlock" | "send" | "recv" | "unblock" | "spawn"
    #: | "begin" | "join" | "end" | "call" | "return" | "accept" | "reply"
    op: str = ""
    obj: str = ""  # semaphore/lock/channel/entry/proc name
    node_id: int = 0  # AST node id (0 for begin/end)
    sync_index: int = 0  # position within the process's sync sequence

    def payload(self) -> dict[str, Any]:
        return {"uid": self.uid}


@dataclass
class SpawnLog(LogEntry):
    """Process creation (gives the child's log file its identity)."""

    child_pid: int = 0
    proc_name: str = ""
    args: list[Any] = field(default_factory=list)
    node_id: int = 0

    def payload(self) -> dict[str, Any]:
        return {
            "child": self.child_pid,
            "proc": self.proc_name,
            "args": [encode_value(a) for a in self.args],
            "node": self.node_id,
        }


@dataclass
class IntervalInfo:
    """One log interval I_i: the span between prelog(i) and postlog(i)."""

    interval_id: int
    pid: int
    block_node_id: int
    block_kind: str
    proc_name: str
    start_index: int  # index of the Prelog within the process's LogFile
    end_index: Optional[int] = None  # index of the Postlog; None while open
    parent: Optional[int] = None  # enclosing interval id
    children: list[int] = field(default_factory=list)  # direct nested intervals

    @property
    def is_open(self) -> bool:
        return self.end_index is None


class LogFile:
    """The per-process log stream (§5.6: "one log file for each process")."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.entries: list[LogEntry] = []

    def append(self, entry: LogEntry) -> int:
        """Add *entry*, returning its index in this file."""
        self.entries.append(entry)
        if _obs.enabled:
            _obs.on_log_entry(self.pid, entry.kind, len(entry.to_json()))
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def to_jsonl(self) -> str:
        """Serialise the whole log as JSON lines: the accounting form whose
        size E2 reports (:meth:`byte_size`).  A saved record is not written
        this way; its on-disk format is the record envelope of
        :mod:`repro.runtime.persist`."""
        return "\n".join(entry.to_json() for entry in self.entries)

    def byte_size(self) -> int:
        """Total serialised size — the execution-phase space cost (E2):
        ``len(to_jsonl()) + 1``, taken from one dump of the entry list,
        which is the JSON lines joined by "," instead of newlines and
        wrapped in "[" and "]"."""
        if not self.entries:
            return 0
        bodies = [entry.to_dict() for entry in self.entries]
        return len(json.dumps(bodies, separators=(",", ":"), default=encode_value)) - 1

    def entry_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return counts


def build_interval_index(log: LogFile) -> dict[int, IntervalInfo]:
    """Reconstruct the interval nesting forest of one process's log.

    Prelog/postlog pairs nest like calls (§5.2, Fig 5.2), so a simple stack
    recovers the tree.  Open intervals (program stopped mid-block) have
    ``end_index is None`` — the PPD Controller starts a debugging session at
    the innermost open interval (§5.3: "the last prelog whose corresponding
    postlog has not yet been generated").
    """
    intervals: dict[int, IntervalInfo] = {}
    stack: list[int] = []
    for index, entry in enumerate(log.entries):
        if isinstance(entry, Prelog):
            info = IntervalInfo(
                interval_id=entry.interval_id,
                pid=log.pid,
                block_node_id=entry.block_node_id,
                block_kind=entry.block_kind,
                proc_name=entry.proc_name,
                start_index=index,
                parent=stack[-1] if stack else None,
            )
            intervals[entry.interval_id] = info
            if stack:
                intervals[stack[-1]].children.append(entry.interval_id)
            stack.append(entry.interval_id)
        elif isinstance(entry, Postlog):
            if not stack or stack[-1] != entry.interval_id:
                raise ValueError(
                    f"postlog({entry.interval_id}) does not match open interval stack {stack}"
                )
            intervals[stack.pop()].end_index = index
    return intervals


def innermost_open_interval(log: LogFile) -> Optional[IntervalInfo]:
    """The interval a debugging session should start from (§5.3)."""
    intervals = build_interval_index(log)
    open_intervals = [info for info in intervals.values() if info.is_open]
    if not open_intervals:
        return None
    return max(open_intervals, key=lambda info: info.start_index)
