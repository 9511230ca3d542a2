"""Persistence of execution records (the paper's on-disk log files).

The execution phase writes "one log file for each process" (§5.6); the
debugging phase may happen later, elsewhere, against the same compiled
program.  :func:`save_record`/:func:`load_record` serialise everything a
:class:`PPDSession` needs — the source (recompiled on load), the e-block
policy, the per-process logs, the synchronization history, and the stop
reason — as one JSON document.

Format version 3 saves each fact once and derives the rest on load.
``logs[pid]`` is a list of rows: a sync entry is its node's uid, a bare
int; every other entry is ``[kind, t, field, ...]`` in its
:data:`~repro.runtime.logging.ENTRY_SHAPES` attribute order, without the
pid its log's key gives.  ``history.nodes`` is four columns (``t``,
``op``, ``obj``, ``node_id``): a node's uid is its position + 1 (a run
numbers them densely from 1), and its pid and sync index come from the
one log that names it.  ``history.edges`` is three columns (``src``,
``dst``, ``label``).  ``history.segments`` is the ``steps`` and
``events`` columns plus ``accesses``, one ``[index, reads, writes,
read_sites, write_sites]`` row per segment that saw a shared access; a
segment's id, pid and bounding uids are derived by replaying node order
as the machine does (each non-``end`` node opens the next segment, and
its process's next node closes it).  No vector clock is saved:
:meth:`SyncHistory.clocks` derives them.  A load checks that every sync
uid is named by exactly one log, in increasing order within it, that
each column has its length, that each row is of a known kind and width,
that each log's prelogs and postlogs pair as intervals (an open tail
allowed), and that every sync edge runs from a known node to a later one.

Versions 1 and 2 (one object per node, edge, segment and entry) still
load, through their own reader, as the record a fresh run saves, and
re-save as version 3.  Version 2 names a node by uid from its sync
entry; version 1 repeats the node (and its vector clock) in the entry,
so each entry is matched to its node by process and sync index and must
agree with it, and each persisted clock must equal the derived one.

The envelope's content digest is a SHA-256 over its canonical form: the
sorted-key compact dump of everything but ``digest``.  A save makes that
dump once and writes it as the document, with the digest moved to the
front: ``{"digest":"<64 hex>",`` followed by the dump minus its opening
``{``.  A load of a document in that layout checks the digest over the
bytes as read; any other document (an older writer's, a hand edit) is
checked by re-dumping its parsed body canonically.  A load decodes the
envelope's structure first, so a broken field is named; then it checks
the digest; only then does it compile the embedded source.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from operator import attrgetter, itemgetter
from typing import Any, Iterable

from ..faults import state as _flt
from ..obs import hooks as _obs

from ..compiler.compile import compile_program
from ..compiler.eblocks import EBlockPolicy
from ..lang.errors import PCLError
from .errors import (
    PersistError,
    RecordCorruptError,
    RecordDigestError,
    RecordIOError,
    RecordVersionError,
)
from .logging import (
    ENTRY_SHAPES,
    VALUE_ATTRS,
    VALUE_MAPS,
    EntryShape,
    LogEntry,
    LogFile,
    Postlog,
    Prelog,
    SyncLog,
    decode_value,
    encode_value,
)
from .machine import (
    BreakpointHit,
    DeadlockInfo,
    ExecutionRecord,
    FailureInfo,
    SyncStateInfo,
)
from .tracing import Segment, SyncEdgeRec, SyncHistory

FORMAT_VERSION = 3


#: What decoding or compiling a malformed envelope raises; each becomes a
#: :class:`RecordCorruptError`.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def _malformed(error: Exception, path: str | None) -> RecordCorruptError:
    return RecordCorruptError(f"corrupt record: {type(error).__name__}: {error}", path=path)


def _corrupt(what: str, path: str | None, field: str) -> RecordCorruptError:
    return RecordCorruptError(f"corrupt record: {what}", path=path, field=field)


def _field(body: dict[str, Any], name: str, path: str | None) -> Any:
    try:
        return body[name]
    except KeyError:
        raise _corrupt("missing field", path, name) from None


#: The types of the values JSON holds as they are.  A save's dump encodes
#: arrays (its ``default`` is :func:`encode_value`); a load decodes only a
#: loaded value of another type, or a list holding one.
_PLAIN = frozenset({int, float, bool, str, type(None)})


def _decoded(value: Any) -> Any:
    """One persisted runtime value (or list of them), arrays decoded."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is list:
        for item in value:
            if type(item) not in _PLAIN:
                return decode_value(value)
        return value
    return decode_value(value)


def _decoded_map(values: dict[str, Any]) -> dict[str, Any]:
    """A persisted ``values`` map, arrays decoded."""
    for value in values.values():
        if type(value) not in _PLAIN:
            return {name: decode_value(value) for name, value in values.items()}
    return values


class _EntryCodec:
    """Persistence of one entry kind but ``SyncLog``, read off its shape.

    Version 3 saves an entry as the row ``[kind, t, field, ...]``: its
    shape's attributes in order, less ``pid``, which the log's key gives.
    Versions 1 and 2 saved it as ``kind`` plus one key per attribute
    (``t`` for ``timestamp``).  The shape's attributes are its class's
    leading fields, in order, so a decode passes them positionally.
    """

    __slots__ = ("kind", "keys", "take", "fields", "width", "coded", "cls")

    def __init__(self, shape: EntryShape) -> None:
        self.cls = shape.cls
        self.kind = shape.kind
        self.keys = ("t", *shape.attrs[1:])
        self.take = itemgetter(*self.keys)
        self.fields = attrgetter("timestamp", *shape.attrs[2:])
        #: a version-3 row's length: ``kind`` stands where ``pid`` would
        self.width = len(shape.attrs)
        #: (attribute index, decoder) of each field that holds runtime
        #: values; a version-3 row holds that field at the same index
        self.coded = tuple(
            (index, _decoded_map if attr in VALUE_MAPS else _decoded)
            for index, attr in enumerate(shape.attrs)
            if attr in VALUE_MAPS or attr in VALUE_ATTRS
        )

    def row(self, entry: LogEntry) -> list[Any]:
        return [self.kind, *self.fields(entry)]

    def decode_row(self, row: list[Any], pid: int) -> LogEntry:
        args = list(row)
        args[0] = row[1]
        args[1] = pid
        for index, decoded in self.coded:
            args[index] = decoded(args[index])
        return self.cls(*args)

    def decode(self, body: dict[str, Any]) -> LogEntry:
        row = list(self.take(body))
        for index, decoded in self.coded:
            row[index] = decoded(row[index])
        return self.cls(*row)

    def decode_partial(self, body: dict[str, Any]) -> LogEntry:
        """Decode an entry that lacks some field (an older writer's): each
        missing field takes its dataclass default."""
        defaults = {
            f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            for f in dataclasses.fields(self.cls)
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        }
        return self.decode({**defaults, **body})


_CODECS: dict[type[LogEntry], _EntryCodec] = {
    cls: _EntryCodec(shape) for cls, shape in ENTRY_SHAPES.items() if cls is not SyncLog
}
_CODECS_BY_KIND: dict[str, _EntryCodec] = {codec.kind: codec for codec in _CODECS.values()}


def _entry_from_json(body: dict[str, Any]) -> LogEntry:
    """One version-1/2 entry object (but a sync entry)."""
    codec = _CODECS_BY_KIND[body["kind"]]
    try:
        return codec.decode(body)
    except KeyError:
        return codec.decode_partial(body)


def _log_rows(log: LogFile) -> list[Any]:
    """A log as version 3 saves it: a sync entry as its node's uid, every
    other entry as its row."""
    codecs = _CODECS
    return [
        entry.uid if type(entry) is SyncLog else codecs[type(entry)].row(entry)
        for entry in log.entries
    ]


def _history_columns(history: SyncHistory) -> dict[str, Any]:
    """The history as version 3 saves it: what a load cannot derive.  A
    node's uid is its position + 1 (a run numbers them so, and a load
    checks it)."""
    nodes = history.nodes.values()
    segments = history.segments
    return {
        "nodes": {
            "t": [node.timestamp for node in nodes],
            "op": [node.op for node in nodes],
            "obj": [node.obj for node in nodes],
            "node_id": [node.node_id for node in nodes],
        },
        "edges": {
            "src": [edge.src_uid for edge in history.edges],
            "dst": [edge.dst_uid for edge in history.edges],
            "label": [edge.label for edge in history.edges],
        },
        "segments": {
            "steps": [segment.step_count for segment in segments],
            "events": [segment.event_count for segment in segments],
            "accesses": [
                [
                    index,
                    sorted(segment.reads),
                    sorted(segment.writes),
                    segment.read_sites,
                    segment.write_sites,
                ]
                for index, segment in enumerate(segments)
                if segment.reads or segment.writes or segment.read_sites or segment.write_sites
            ],
        },
    }


def _history_and_logs(
    body: dict[str, Any], path: str | None
) -> tuple[SyncHistory, dict[int, LogFile]]:
    """A version-3 body's history and logs: each sync uid becomes the
    node its columns describe, with the pid and sync index of the log
    that names it; then node order gives the segments' bounds."""
    history_body = _field(body, "history", path)
    columns = history_body["nodes"]
    times, ops, objs, node_ids = columns["t"], columns["op"], columns["obj"], columns["node_id"]
    count = len(times)
    for name, column in (("op", ops), ("obj", objs), ("node_id", node_ids)):
        if len(column) != count:
            raise _corrupt("node columns differ in length", path, f"history.nodes.{name}")
    slots: list[SyncLog | None] = [None] * count
    codecs = _CODECS_BY_KIND
    logs: dict[int, LogFile] = {}
    for pid_text, rows in _field(body, "logs", path).items():
        pid = int(pid_text)
        log = LogFile(pid)
        # Fill the entry list itself: ``LogFile.append`` is the execution
        # phase's logging (and its obs counters), and a load logs nothing.
        entries = log.entries
        last_uid = sync_index = 0
        open_intervals: list[int] = []
        for index, row in enumerate(rows):
            if type(row) is int:
                if not last_uid < row <= count or slots[row - 1] is not None:
                    raise _corrupt(
                        "sync uid out of range, out of order, or named twice",
                        path,
                        f"logs.{pid}[{index}]",
                    )
                sync_index += 1
                at = row - 1
                node = SyncLog(times[at], pid, row, ops[at], objs[at], node_ids[at], sync_index)
                slots[at] = node
                entries.append(node)
                last_uid = row
                continue
            try:
                codec = codecs[row[0]]
            except (KeyError, IndexError, TypeError):
                codec = None
            if codec is None or type(row) is not list or len(row) != codec.width:
                raise _corrupt(
                    "entry row of an unknown kind or width", path, f"logs.{pid}[{index}]"
                )
            entry = codec.decode_row(row, pid)
            if codec.cls is Prelog:
                open_intervals.append(entry.interval_id)
            elif codec.cls is Postlog:
                _close_interval(open_intervals, entry.interval_id, path, f"logs.{pid}[{index}]")
            entries.append(entry)
        logs[pid] = log
    if None in slots:
        raise _corrupt(
            "history node that no log names", path, f"history.nodes[{slots.index(None)}]"
        )

    history = SyncHistory()
    history.nodes = dict(zip(range(1, count + 1), slots))
    per_process = history.per_process
    segments_body = history_body["segments"]
    steps, events = segments_body["steps"], segments_body["events"]
    opened = count - ops.count("end")
    for name, column in (("steps", steps), ("events", events)):
        if len(column) != opened:
            raise _corrupt(
                "one value per segment (non-end node) expected", path, f"history.segments.{name}"
            )
    for node in slots:
        per_process.setdefault(node.pid, []).append(node.uid)
    # seg_id, pid, start, end, reads, writes, read_sites, write_sites, events, steps
    segments = history.segments = [
        Segment(index + 1, pid, start, end, set(), set(), [], [], events[index], steps[index])
        for index, (pid, start, end) in enumerate(_segment_bounds(slots))
    ]
    last_index = -1
    for position, row in enumerate(segments_body["accesses"]):
        where = f"history.segments.accesses[{position}]"
        if type(row) is not list or len(row) != 5:
            raise _corrupt("access row of the wrong width", path, where)
        seg_index, reads, writes, read_sites, write_sites = row
        if type(seg_index) is not int or not last_index < seg_index < opened:
            raise _corrupt("access row names no later segment", path, where)
        last_index = seg_index
        segment = segments[seg_index]
        segment.reads = set(reads)
        segment.writes = set(writes)
        segment.read_sites = [tuple(site) for site in read_sites]
        segment.write_sites = [tuple(site) for site in write_sites]

    edges_body = history_body["edges"]
    sources, targets, labels = edges_body["src"], edges_body["dst"], edges_body["label"]
    for name, column in (("dst", targets), ("label", labels)):
        if len(column) != len(sources):
            raise _corrupt("edge columns differ in length", path, f"history.edges.{name}")
    for index, (src, dst) in enumerate(zip(sources, targets)):
        if type(dst) is not int or not 0 < dst <= count:
            raise _corrupt("sync edge to an unknown node", path, f"history.edges.dst[{index}]")
        if type(src) is not int or not 0 < src < dst:
            raise _corrupt(
                "sync edge from an unknown or later node", path, f"history.edges.src[{index}]"
            )
    history.edges = list(map(SyncEdgeRec, sources, targets, labels))
    return history, logs


def _segment_bounds(nodes: Iterable[SyncLog]) -> list[list]:
    """``[pid, start uid, end uid or None]`` of each segment, in order, from
    the history's nodes in uid order, as ``Machine._sync_event`` opens and
    closes them: each non-``end`` node opens the next segment of its
    process, and the process's next node closes it."""
    bounds: list[list] = []
    open_bounds: dict[int, list] = {}
    for node in nodes:
        bound = open_bounds.pop(node.pid, None)
        if bound is not None:
            bound[2] = node.uid
        if node.op != "end":
            bound = [node.pid, node.uid, None]
            bounds.append(bound)
            open_bounds[node.pid] = bound
    return bounds


def _check_derivable(history: SyncHistory, logs: dict[int, LogFile], path: str | None) -> None:
    """A version-1/2 record must hold what version 3 derives, so that it
    re-saves without loss: node uids run 1..n; each log names its own
    process's nodes in uid and sync-index order, all of them between the
    logs; and each segment is the one node order opens."""
    nodes = history.nodes
    if list(nodes) != list(range(1, len(nodes) + 1)):
        raise _corrupt("history node uids do not run 1..n", path, "history.nodes")
    named = 0
    for pid, log in logs.items():
        last_uid = sync_index = 0
        for index, entry in enumerate(log.entries):
            if type(entry) is SyncLog:
                sync_index += 1
                if entry.sync_index != sync_index or entry.uid <= last_uid:
                    raise _corrupt(
                        "sync entry out of its log's order", path, f"logs.{pid}[{index}]"
                    )
                last_uid = entry.uid
        named += sync_index
    if named != len(nodes):
        raise _corrupt("history node that no log names", path, "history.nodes")
    saved = [[s.seg_id, s.pid, s.start_uid, s.end_uid] for s in history.segments]
    derived = [[index + 1, *bound] for index, bound in enumerate(_segment_bounds(nodes.values()))]
    if saved != derived:
        index = next(
            (i for i, (a, b) in enumerate(zip(saved, derived)) if a != b),
            min(len(saved), len(derived)),
        )
        raise _corrupt("segment disagrees with node order", path, f"history.segments[{index}]")


def _close_interval(
    open_intervals: list[int], interval_id: int, path: str | None, where: str
) -> None:
    """A postlog closes the innermost open interval, which must be its own
    (the rule :func:`~repro.runtime.logging.build_interval_index` reads)."""
    if not open_intervals or open_intervals.pop() != interval_id:
        raise _corrupt("postlog closes no open interval of its id", path, where)


#: A version-1/2 history node saved its fields by attribute name, ``t``
#: for ``timestamp``; a decode passes them positionally.
_NODE_KEYS = ("t", *(f.name for f in dataclasses.fields(SyncLog)[1:]))
_node_fields = itemgetter(*_NODE_KEYS)


def _history_from_json(
    body: dict[str, Any], v1_clocks: list | None, path: str | None
) -> SyncHistory:
    """A version-1/2 history, nodes first; edges checked to run from a
    known node to a later one.  A version-1 body's node clocks go to
    *v1_clocks*."""
    history = SyncHistory()
    for index, node in enumerate(body["nodes"]):
        history.add_node(SyncLog(*_node_fields(node)))
        if v1_clocks is not None:
            v1_clocks.append(
                (f"history.nodes[{index}].clock", node["uid"], _v1_clock(node["clock"]))
            )
    nodes = history.nodes
    for index, edge in enumerate(body["edges"]):
        src, dst = edge["src"], edge["dst"]
        if dst not in nodes:
            raise _corrupt(
                "sync edge to an unknown node", path, f"history.edges[{index}].dst"
            )
        if src not in nodes or src >= dst:
            raise _corrupt(
                "sync edge from an unknown or later node", path, f"history.edges[{index}].src"
            )
        history.add_edge(src, dst, edge["label"])
    for seg in body["segments"]:
        history.segments.append(
            Segment(
                seg_id=seg["seg_id"],
                pid=seg["pid"],
                start_uid=seg["start"],
                end_uid=seg["end"],
                reads=set(seg["reads"]),
                writes=set(seg["writes"]),
                read_sites=[tuple(site) for site in seg["read_sites"]],
                write_sites=[tuple(site) for site in seg["write_sites"]],
                event_count=seg["events"],
                # absent in pre-localization records; 0 keeps them loadable
                step_count=seg.get("steps", 0),
            )
        )
    return history


def _logs_from_json(
    body: dict[str, Any], history: SyncHistory, v1_clocks: list | None, path: str | None
) -> dict[int, LogFile]:
    """Each process's version-1/2 log; a sync entry becomes the history
    node it names (version 2: by uid; version 1, whose entry clocks go to
    *v1_clocks*: by process and sync index), and prelogs and postlogs
    must pair as intervals."""
    nodes = history.nodes
    by_index = (
        None
        if v1_clocks is None
        else {(node.pid, node.sync_index): node for node in nodes.values()}
    )
    logs: dict[int, LogFile] = {}
    for pid_text, entries in _field(body, "logs", path).items():
        pid = int(pid_text)
        log = LogFile(pid)
        # Fill the entry list itself: ``LogFile.append`` is the execution
        # phase's logging (and its obs counters), and a load logs nothing.
        decoded = log.entries
        open_intervals: list[int] = []
        for index, entry in enumerate(entries):
            if entry["kind"] != "SyncLog":
                entry = _entry_from_json(entry)
                if type(entry) is Prelog:
                    open_intervals.append(entry.interval_id)
                elif type(entry) is Postlog:
                    _close_interval(open_intervals, entry.interval_id, path, f"logs.{pid}[{index}]")
                decoded.append(entry)
                continue
            if by_index is not None:
                where = f"logs.{pid}[{index}]"
                node = _v1_sync_node(entry, by_index.get((pid, entry["sync_index"])), where, path)
                v1_clocks.append((f"{where}.clock", node.uid, _v1_clock(entry["clock"])))
            else:
                node = nodes.get(entry["uid"])
                if node is None or node.pid != pid:
                    raise _corrupt(
                        "sync entry names no node of its process", path, f"logs.{pid}[{index}].uid"
                    )
            decoded.append(node)
        logs[pid] = log
    return logs


def _v1_sync_node(
    entry: dict[str, Any], node: SyncLog | None, where: str, path: str | None
) -> SyncLog:
    """The node a version-1 sync entry matched by (pid, sync index), which
    must hold what the entry repeats of it."""
    if node is None:
        raise _corrupt("sync entry matches no history node", path, f"{where}.sync_index")
    for name, value in (
        ("op", node.op),
        ("obj", node.obj),
        ("node_id", node.node_id),
        ("t", node.timestamp),
    ):
        if entry[name] != value:
            raise _corrupt("sync entry disagrees with its history node", path, f"{where}.{name}")
    return node


def _v1_clock(counts: dict[str, int]) -> dict[int, int]:
    return {int(pid): count for pid, count in counts.items()}


def _check_v1_clocks(history: SyncHistory, v1_clocks: list, path: str | None) -> None:
    """Every clock a version-1 document persisted must equal the derived one."""
    derived = history.clocks()
    for where, uid, counts in v1_clocks:
        if derived[uid].counts != counts:
            raise _corrupt(
                "persisted vector clock disagrees with the clock derived from the sync edges",
                path,
                where,
            )


def record_to_json(record: ExecutionRecord) -> str:
    """Serialise a logged execution record as one JSON document.

    The body is dumped once, canonically, and written behind its digest
    (the layout of the module docstring).  The digest is stashed on
    *record* as its name (:func:`record_content_digest`), so a record that
    has been saved or spilled is never serialised again just to be named.
    """
    canonical = _canonical(_record_body(record))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    record._ppd_digest = digest  # type: ignore[attr-defined]
    return _HEAD.format(digest) + canonical[1:]


def record_content_digest(record: ExecutionRecord) -> str:
    """The persist envelope's content digest of *record*: its name.

    :func:`record_to_json` and :func:`record_from_json` stash the digest
    they compute or verify; a record that was never saved or loaded pays
    one body build and one canonical dump here, once.
    """
    digest = getattr(record, "_ppd_digest", None)
    if digest is None:
        digest = _content_digest(_record_body(record))
        record._ppd_digest = digest  # type: ignore[attr-defined]
    return digest


def _record_body(record: ExecutionRecord) -> dict[str, Any]:
    """The persist envelope of *record*, without its ``digest``."""
    if record.mode != "logged":
        raise ValueError("only 'logged' records are worth persisting")
    return {
        "version": FORMAT_VERSION,
        "source": record.compiled.program.source,
        "policy": dataclasses.asdict(record.compiled.policy),
        "seed": record.seed,
        "output": [[pid, text] for pid, text in record.output],
        "logs": {str(pid): _log_rows(log) for pid, log in record.logs.items()},
        "history": _history_columns(record.history),
        "failure": dataclasses.asdict(record.failure) if record.failure else None,
        "deadlock": dataclasses.asdict(record.deadlock) if record.deadlock else None,
        "breakpoint": dataclasses.asdict(record.breakpoint_hit)
        if record.breakpoint_hit
        else None,
        "shared_final": record.shared_final,
        "shared_initial": record.shared_initial,
        "total_steps": record.total_steps,
        "preemptions": record.preemptions,
        "context_switches": record.context_switches,
        "process_names": {str(k): v for k, v in record.process_names.items()},
        "spawn_args": {str(k): v for k, v in record.spawn_args.items()},
        "process_steps": {str(k): v for k, v in record.process_steps.items()},
        "sync_state": dataclasses.asdict(record.sync_state),
        "inputs_consumed": record.inputs_consumed,
    }


def _canonical(body: dict[str, Any]) -> str:
    """Sorted-key compact JSON, arrays encoded: the form the content
    digest covers, so the digest survives any round trip that preserves
    values (including key reordering)."""
    return json.dumps(body, separators=(",", ":"), sort_keys=True, default=encode_value)


def _content_digest(body: dict[str, Any]) -> str:
    """SHA-256 over the canonical form of the envelope minus ``digest``."""
    stripped = {k: v for k, v in body.items() if k != "digest"}
    return hashlib.sha256(_canonical(stripped).encode("utf-8")).hexdigest()


#: The head of a written document, filled with the digest; the canonical
#: body follows it, minus its own opening ``{``.
_HEAD = '{{"digest":"{}",'
_BODY_START = len(_HEAD.format("0" * 64))


def _layout_digest(data: bytes) -> str | None:
    """The digest heading *data*, if *data* is in the written layout and
    that digest is the SHA-256 of the body that follows; else None."""
    if not data.startswith(b'{"digest":"'):
        return None
    digest = hashlib.sha256(b"{")
    digest.update(memoryview(data)[_BODY_START:])
    hexdigest = digest.hexdigest()
    return hexdigest if data[:_BODY_START] == _HEAD.format(hexdigest).encode() else None


def record_from_json(text: str, *, path: str | None = None) -> ExecutionRecord:
    """Reconstruct a record (recompiling the program from its source).

    Raises :class:`PersistError` on corrupt or future-version input; the
    optional *path* is threaded into the error for context.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as error:
        raise RecordCorruptError(f"corrupt record: not UTF-8 ({error})", path=path) from error
    return _record_from_document(data, text, path)


def _record_from_bytes(data: bytes, path: str | None) -> ExecutionRecord:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise RecordCorruptError(f"corrupt record: not UTF-8 ({error})", path=path) from error
    return _record_from_document(data, text, path)


def _record_from_document(data: bytes, text: str, path: str | None) -> ExecutionRecord:
    """Load one document, given as its UTF-8 *data* and their *text*."""
    try:
        body = json.loads(text)
    except json.JSONDecodeError as error:
        raise RecordCorruptError(
            f"corrupt record: not valid JSON ({error})", path=path
        ) from error
    if not isinstance(body, dict):
        raise RecordCorruptError("corrupt record: top level is not an object", path=path)
    version = body.get("version")
    if version is None:
        raise RecordVersionError(
            "corrupt record: no version in envelope", path=path, field="version"
        )
    if (
        isinstance(version, bool)
        or not isinstance(version, int)
        or not 1 <= version <= FORMAT_VERSION
    ):
        raise RecordVersionError(
            f"unsupported record version {version!r} "
            f"(this build reads versions 1..{FORMAT_VERSION})",
            path=path,
            field="version",
        )
    v1_clocks: list | None = [] if version == 1 else None
    try:
        source, policy, fields = _decode_body(body, version, v1_clocks, path)
    except PersistError:
        raise
    except _MALFORMED as error:
        raise _malformed(error, path) from error
    # Content digest, verified after the structural parse so structural
    # breakage keeps its precise field-naming diagnostics, and before the
    # compile so a tampered source is reported as tampering.  Records
    # written before the digest entered the envelope still load, and are
    # named lazily by record_content_digest.
    claimed = body.get("digest")
    if (
        claimed is not None
        and claimed != _layout_digest(data)
        and claimed != _content_digest(body)
    ):
        raise RecordDigestError(
            "corrupt record: content digest mismatch "
            "(bit rot, tampering, or a torn write)",
            path=path,
            field="digest",
        )
    if v1_clocks is not None:
        _check_v1_clocks(fields["history"], v1_clocks, path)
    try:
        compiled = compile_program(source, policy=policy)
    except PCLError as error:
        raise RecordCorruptError(
            f"corrupt record: source does not compile ({error})",
            path=path,
            field="source",
        ) from error
    except _MALFORMED as error:  # e.g. a policy value of the wrong type
        raise _malformed(error, path) from error
    record = ExecutionRecord(compiled=compiled, mode="logged", **fields)
    if claimed is not None and version == FORMAT_VERSION:
        # An older version's record is named by the digest of its re-save
        # in this version, when asked.
        record._ppd_digest = claimed  # type: ignore[attr-defined]
    return record


def _decode_body(
    body: dict[str, Any], version: int, v1_clocks: list | None, path: str | None
) -> tuple[str, EBlockPolicy, dict[str, Any]]:
    """The envelope's source, its policy, and every other
    :class:`ExecutionRecord` field, decoded but not compiled.  For a
    version-1 body, *v1_clocks* collects its persisted clocks."""
    policy = EBlockPolicy(**_field(body, "policy", path))
    source = _field(body, "source", path)
    if version == FORMAT_VERSION:
        history, logs = _history_and_logs(body, path)
    else:
        history = _history_from_json(_field(body, "history", path), v1_clocks, path)
        logs = _logs_from_json(body, history, v1_clocks, path)
        _check_derivable(history, logs, path)

    sync_state_body = _field(body, "sync_state", path)
    sync_state = SyncStateInfo(
        semaphores={
            k: (v[0], list(v[1])) for k, v in sync_state_body["semaphores"].items()
        },
        locks=dict(sync_state_body["locks"]),
        channels=dict(sync_state_body["channels"]),
    )
    return source, policy, dict(
        seed=_field(body, "seed", path),
        output=[(pid, text) for pid, text in _field(body, "output", path)],
        logs=logs,
        history=history,
        failure=FailureInfo(**body["failure"]) if body["failure"] else None,
        deadlock=DeadlockInfo(
            blocked=[tuple(item) for item in body["deadlock"]["blocked"]],
            timestamp=body["deadlock"]["timestamp"],
        )
        if body["deadlock"]
        else None,
        shared_final={k: decode_value(v) for k, v in body["shared_final"].items()},
        total_steps=body["total_steps"],
        # Scheduler totals entered the envelope after v1 shipped; default
        # 0 keeps older v1 documents loadable.
        preemptions=body.get("preemptions", 0),
        context_switches=body.get("context_switches", 0),
        process_names={int(k): v for k, v in body["process_names"].items()},
        spawn_args={
            int(k): [decode_value(a) for a in v]
            for k, v in body["spawn_args"].items()
        },
        inputs_consumed=body["inputs_consumed"],
        breakpoint_hit=BreakpointHit(**body["breakpoint"]) if body["breakpoint"] else None,
        process_steps={int(k): v for k, v in body["process_steps"].items()},
        sync_state=sync_state,
        shared_initial={k: decode_value(v) for k, v in body["shared_initial"].items()},
    )


def save_record(record: ExecutionRecord, path: str) -> None:
    """Write the record to *path* (one JSON document), temp-then-rename.

    The atomic rename means a crash mid-save leaves either the previous
    record or none — never a torn document.  The ``persist.truncate`` /
    ``persist.bitflip`` points of :mod:`repro.faults` corrupt the
    document here (simulating disk rot the rename cannot prevent), which
    is exactly what the load-side digest check exists to catch.
    """
    text = record_to_json(record)
    if _flt.active:
        if _flt.fire("persist.truncate") is not None:
            text = text[: max(1, len(text) // 2)]
        if _flt.fire("persist.bitflip") is not None:
            index = len(text) // 3
            text = text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1 :]
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def load_record(path: str, *, quarantine: bool = True) -> ExecutionRecord:
    """Load a record previously written by :func:`save_record`.

    Raises a typed :class:`PersistError` (naming *path*) when the file
    does not contain a readable record.  With ``quarantine`` (default),
    an unreadable record file is moved aside to ``<path>.quarantined``
    first — so a corrupt record can never be half-loaded twice, and the
    evidence survives for post-mortems; the error's ``quarantined``
    attribute names the new location.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise RecordIOError(f"cannot read record: {error}", path=path) from error
    try:
        return _record_from_bytes(data, path)
    except PersistError as error:
        if quarantine:
            quarantined = path + ".quarantined"
            try:
                os.replace(path, quarantined)
                error.quarantined = quarantined
            except OSError:
                pass
            if _obs.enabled:
                _obs.on_recovery("persist.quarantined")
        raise
