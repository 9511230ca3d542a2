"""Reference serializer: the record envelope as format version 2 wrote it.

Format 2 saved one object per history node, edge, segment and log entry.
``repro.runtime.persist`` now writes format 3 and only reads format 2,
so the record digests pinned before format 3 (``schedule_golden.json``,
``test_record_pins.PINNED``) are computed here, over the version-2
canonical body of a record, and the tests of the version-2 reader build
their documents here.  :func:`record_to_json_v2` gives the bytes the
last version-2 writer saved.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

from repro.runtime import persist
from repro.runtime.logging import ENTRY_SHAPES, LogEntry, SyncLog
from repro.runtime.machine import ExecutionRecord
from repro.runtime.tracing import SyncHistory

_NODE_KEYS = ("t", "pid", "uid", "op", "obj", "node_id", "sync_index")


def _entry(entry: LogEntry) -> dict[str, Any]:
    """A sync entry names its node by uid; every other entry is saved
    field by field, keyed by attribute name (``t`` for ``timestamp``)."""
    if type(entry) is SyncLog:
        return {"kind": "SyncLog", "uid": entry.uid}
    shape = ENTRY_SHAPES[type(entry)]
    body = dict(zip(("t", *shape.attrs[1:]), shape.row(entry)))
    body["kind"] = shape.kind
    return body


def _history(history: SyncHistory) -> dict[str, Any]:
    return {
        "nodes": [
            dict(
                zip(
                    _NODE_KEYS,
                    (
                        node.timestamp,
                        node.pid,
                        node.uid,
                        node.op,
                        node.obj,
                        node.node_id,
                        node.sync_index,
                    ),
                )
            )
            for node in history.nodes.values()
        ],
        "edges": [{"src": e.src_uid, "dst": e.dst_uid, "label": e.label} for e in history.edges],
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


def record_body_v2(record: ExecutionRecord) -> dict[str, Any]:
    """The version-2 envelope of *record*, without its ``digest``."""
    body = persist._record_body(record)
    body["version"] = 2
    body["logs"] = {
        str(pid): [_entry(entry) for entry in log.entries] for pid, log in record.logs.items()
    }
    body["history"] = _history(record.history)
    return body


def record_to_json_v2(record: ExecutionRecord) -> str:
    """The document a version-2 save wrote: the digest, then the
    canonical body minus its opening ``{``."""
    canonical = persist._canonical(record_body_v2(record))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return '{"digest":"' + digest + '",' + canonical[1:]


def record_digest_v2(record: ExecutionRecord) -> str:
    """The replay-cache name a version-2 build gave *record*: the first 24
    hex digits of its version-2 content digest."""
    return hashlib.sha256(persist._canonical(record_body_v2(record)).encode("utf-8")).hexdigest()[
        :24
    ]


__all__ = ["record_body_v2", "record_digest_v2", "record_to_json_v2"]
