"""Persistence of execution records (the paper's on-disk log files).

The execution phase writes "one log file for each process" (§5.6); the
debugging phase may happen later, elsewhere, against the same compiled
program.  :func:`save_record`/:func:`load_record` serialise everything a
:class:`PPDSession` needs — the source (recompiled on load), the e-block
policy, the per-process logs, the synchronization history, and the stop
reason — as one JSON document.

Format version 2 persists no vector clock.  The history's nodes carry
what a sync event is; a log's sync entry names its node by uid and
repeats nothing of it.  A load builds the nodes first, checks that every
sync entry names a node of its own process and that every sync edge runs
from a lower uid to a higher one (the order clock derivation relies on),
and derives no clock.  A version-1 document (clocks on every node and on
every sync entry) still loads: each sync entry is matched to its node by
process and sync index and must agree with it, and each persisted clock
must equal the clock derived from the edges; the loaded record is the
version-2 record, named by its version-2 digest.

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
from typing import Any

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
from .tracing import Segment, SyncHistory

FORMAT_VERSION = 2


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

    An entry persists as ``kind`` plus one key per field of its shape,
    named by the attribute (``t`` for ``timestamp``).  The shape's
    attributes are its class's leading fields, in order, so a decode
    passes them positionally.
    """

    __slots__ = ("kind", "keys", "row", "take", "coded", "cls")

    def __init__(self, shape: EntryShape) -> None:
        self.cls = shape.cls
        self.kind = shape.kind
        self.keys = ("t", *shape.attrs[1:])
        self.row = shape.row
        self.take = itemgetter(*self.keys)
        #: (row index, decoder) of each field that holds runtime values
        self.coded = tuple(
            (index, _decoded_map if attr in VALUE_MAPS else _decoded)
            for index, attr in enumerate(shape.attrs)
            if attr in VALUE_MAPS or attr in VALUE_ATTRS
        )

    def encode(self, entry: LogEntry) -> dict[str, Any]:
        body = dict(zip(self.keys, self.row(entry)))
        body["kind"] = self.kind
        return body

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


def _entry_to_json(entry: LogEntry) -> dict[str, Any]:
    """A ``SyncLog`` entry is its history node and persists as
    ``{"kind": "SyncLog", "uid": ...}``; every other entry field by field."""
    if type(entry) is SyncLog:
        return {"kind": "SyncLog", "uid": entry.uid}
    return _CODECS[type(entry)].encode(entry)


def _entry_from_json(body: dict[str, Any]) -> LogEntry:
    codec = _CODECS_BY_KIND[body["kind"]]
    try:
        return codec.decode(body)
    except KeyError:
        return codec.decode_partial(body)


#: A history node persists its fields by attribute name, ``t`` for
#: ``timestamp``; a decode passes them positionally.
_NODE_KEYS = ("t", *(f.name for f in dataclasses.fields(SyncLog)[1:]))
_node_row = attrgetter("timestamp", *_NODE_KEYS[1:])
_node_fields = itemgetter(*_NODE_KEYS)


def _history_to_json(history: SyncHistory) -> dict[str, Any]:
    return {
        "nodes": [dict(zip(_NODE_KEYS, _node_row(node))) for node in history.nodes.values()],
        "edges": [
            {"src": e.src_uid, "dst": e.dst_uid, "label": e.label}
            for e in history.edges
        ],
        "segments": [
            {
                "seg_id": s.seg_id,
                "pid": s.pid,
                "start": s.start_uid,
                "end": s.end_uid,
                "reads": sorted(s.reads),
                "writes": sorted(s.writes),
                "read_sites": [list(site) for site in s.read_sites],
                "write_sites": [list(site) for site in s.write_sites],
                "events": s.event_count,
                "steps": s.step_count,
            }
            for s in history.segments
        ],
    }


def _history_from_json(
    body: dict[str, Any], v1_clocks: list | None, path: str | None
) -> SyncHistory:
    """The history, nodes first; edges checked to run from a known node
    to a later one.  A version-1 body's node clocks go to *v1_clocks*."""
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
    """Each process's log; a sync entry becomes the history node it names
    (version 2: by uid; version 1, whose entry clocks go to *v1_clocks*:
    by process and sync index)."""
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
        for index, entry in enumerate(entries):
            if entry["kind"] != "SyncLog":
                decoded.append(_entry_from_json(entry))
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
        "logs": {
            str(pid): [_entry_to_json(e) for e in log.entries]
            for pid, log in record.logs.items()
        },
        "history": _history_to_json(record.history),
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
        source, policy, fields = _decode_body(body, v1_clocks, path)
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
        # A version-1 record is named by its version-2 digest, when asked.
        record._ppd_digest = claimed  # type: ignore[attr-defined]
    return record


def _decode_body(
    body: dict[str, Any], v1_clocks: list | None, path: str | None
) -> tuple[str, EBlockPolicy, dict[str, Any]]:
    """The envelope's source, its policy, and every other
    :class:`ExecutionRecord` field, decoded but not compiled.  For a
    version-1 body, *v1_clocks* collects its persisted clocks."""
    policy = EBlockPolicy(**_field(body, "policy", path))
    source = _field(body, "source", path)
    history = _history_from_json(_field(body, "history", path), v1_clocks, path)
    logs = _logs_from_json(body, history, v1_clocks, path)

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
