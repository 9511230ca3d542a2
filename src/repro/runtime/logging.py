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

Each entry kind's shape is declared once, in :data:`ENTRY_SHAPES`; every
whole-log pass (sizing, writing, counting, persisting) reads it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
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


#: The compact dump of accounting lines, arrays encoded on the way.
_JSON = json.JSONEncoder(separators=(",", ":"), default=encode_value)


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

    def to_dict(self) -> dict[str, Any]:
        """The accounting line of this entry (:data:`ENTRY_SHAPES`), before
        the dump, which encodes any array in it."""
        shape = ENTRY_SHAPES[type(self)]
        body = {"kind": shape.kind}
        body.update(zip(shape.keys, shape.row(self)))
        return body

    def to_json(self) -> str:
        return _JSON.encode(self.to_dict())


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


@dataclass
class Postlog(LogEntry):
    """End-of-e-block snapshot: values of the DEFINED set plus the return
    value (§5.1); also the raw material of state restoration (§5.7)."""

    interval_id: int = 0
    values: dict[str, Any] = field(default_factory=dict)
    retval: Any = None
    has_retval: bool = False
    steps: int = 0  # process-local statement count at postlog time


@dataclass
class SyncPrelog(LogEntry):
    """Extra prelog at a synchronization-unit start (§5.5): the values of
    the shared variables the unit may read."""

    site_node_id: int = 0  # AST node of the unit-starting statement (0 = proc entry)
    proc_name: str = ""
    values: dict[str, Any] = field(default_factory=dict)


@dataclass
class InputLog(LogEntry):
    """A nondeterministic input consumed by the process: ``input()``,
    ``rand()``, or the value delivered by ``recv``.  Logged so the emulation
    package can replay it (§5.1: "the same input as originally fed")."""

    source: str = "input"  # "input" | "rand" | "recv"
    node_id: int = 0
    value: Any = None


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


@dataclass
class SpawnLog(LogEntry):
    """Process creation (gives the child's log file its identity)."""

    child_pid: int = 0
    proc_name: str = ""
    args: list[Any] = field(default_factory=list)
    node_id: int = 0


#: The entry attributes that hold runtime values, which may be or hold
#: arrays: a map of variable names to values, or one value (an argument
#: list counting as one).  Every other entry attribute is an int, a str or
#: a bool.
VALUE_MAPS = frozenset({"values"})
VALUE_ATTRS = frozenset({"args", "retval", "value"})


class EntryShape:
    """One log-entry kind's shape, as declared in :data:`ENTRY_SHAPES`.

    ``keys`` are the keys of the kind's accounting line after ``kind``
    (:meth:`LogEntry.to_json`, whose sizes E2 reports), and ``attrs`` the
    attribute each key reads.  Those attribute names are also the keys a
    saved record persists (:mod:`repro.runtime.persist`), with ``t`` for
    ``timestamp``.
    """

    __slots__ = ("cls", "kind", "keys", "attrs", "row", "key_text")

    def __init__(self, cls: type[LogEntry], **attrs: str) -> None:
        self.cls = cls
        self.kind = cls.__name__
        self.keys = ("t", "pid", *attrs)
        self.attrs = ("timestamp", "pid", *attrs.values())
        #: One entry's accounting-line values, in key order.
        self.row = attrgetter(*self.attrs)
        blank = [0] * len(self.keys)
        #: How much longer an accounting line is than the dump of its row:
        #: the text of its keys, ``kind`` and all.
        line = {"kind": self.kind, **dict(zip(self.keys, blank))}
        self.key_text = len(_JSON.encode(line)) - len(_JSON.encode(blank))


#: Each log-entry kind's shape, declared once: its accounting keys after
#: ``kind``, ``t`` and ``pid``, each with the attribute it reads.  Sizing,
#: counting and writing a log read this table, and so does persistence.
ENTRY_SHAPES: dict[type[LogEntry], EntryShape] = {
    shape.cls: shape
    for shape in (
        EntryShape(
            Prelog,
            interval="interval_id",
            block="block_node_id",
            block_kind="block_kind",
            proc="proc_name",
            values="values",
            args="args",
            steps="steps",
        ),
        EntryShape(
            Postlog,
            interval="interval_id",
            values="values",
            retval="retval",
            has_retval="has_retval",
            steps="steps",
        ),
        EntryShape(SyncPrelog, site="site_node_id", proc="proc_name", values="values"),
        EntryShape(InputLog, source="source", node="node_id", value="value"),
        EntryShape(SyncLog, uid="uid"),
        EntryShape(SpawnLog, child="child_pid", proc="proc_name", args="args", node="node_id"),
    )
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
        ``len(to_jsonl()) + 1``, 0 for an empty log.

        Counted without writing a line.  A row (:attr:`EntryShape.row`)
        dumps as its line less the key text (:attr:`EntryShape.key_text`),
        so one dump of all rows, joined by "," and wrapped in "[" and "]",
        is one character longer than the lines with their newlines, less
        that text.
        """
        entries = self.entries
        if not entries:
            return 0
        rows = [ENTRY_SHAPES[type(entry)].row(entry) for entry in entries]
        key_text = sum(
            ENTRY_SHAPES[cls].key_text * count for cls, count in Counter(map(type, entries)).items()
        )
        return len(_JSON.encode(rows)) - 1 + key_text

    def entry_counts(self) -> dict[str, int]:
        """How many entries of each kind, in order of first appearance."""
        return {
            ENTRY_SHAPES[cls].kind: count for cls, count in Counter(map(type, self.entries)).items()
        }


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


def innermost_open(intervals: dict[int, IntervalInfo]) -> Optional[IntervalInfo]:
    """The interval of an index (:func:`build_interval_index`) a debugging
    session starts from (§5.3): the open one whose prelog came last."""
    open_intervals = [info for info in intervals.values() if info.is_open]
    if not open_intervals:
        return None
    return max(open_intervals, key=lambda info: info.start_index)


def innermost_open_interval(log: LogFile) -> Optional[IntervalInfo]:
    """The interval a debugging session should start from (§5.3)."""
    return innermost_open(build_interval_index(log))
