"""The virtual shared-memory multiprocessor (execution phase, §3.2.2).

Runs compiled PCL programs with a seeded preemptive scheduler, semaphores,
locks, message channels, and the paper's execution-phase logging
(prelogs, postlogs, sync prelogs); vector clocks are derived from the
synchronization history when an ordering question asks.
"""

from .channels import Channel, Message
from .clocks import VectorClock, happened_before_or_equal
from .errors import AssertionFailure, DeadlockError, PCLRuntimeError
from .logging import (
    InputLog,
    IntervalInfo,
    LogEntry,
    LogFile,
    Postlog,
    Prelog,
    SpawnLog,
    SyncLog,
    SyncPrelog,
    build_interval_index,
    innermost_open_interval,
)
from .machine import (
    BreakpointHit,
    DeadlockInfo,
    ExecutionRecord,
    FailureInfo,
    Machine,
    run_program,
)
from .persist import (
    PersistError,
    RecordCorruptError,
    RecordDigestError,
    RecordIOError,
    RecordVersionError,
    load_record,
    record_from_json,
    record_to_json,
    save_record,
)
from .process import Frame, ProcState, Process
from .scheduler import Scheduler
from .sync import Lock, Semaphore
from .tracing import (
    EV_ASSERT,
    EV_CALL,
    EV_ENTER,
    EV_EXTERN,
    EV_INPUT,
    EV_PRED,
    EV_PRINT,
    EV_RET,
    EV_STMT,
    EV_SUBGRAPH,
    EV_SYNC,
    Segment,
    SyncEdgeRec,
    SyncHistory,
    TraceEvent,
    Tracer,
)
from .values import PCLArray, apply_binary, apply_unary, default_value, format_value

__all__ = [
    "AssertionFailure",
    "BreakpointHit",
    "Channel",
    "DeadlockError",
    "DeadlockInfo",
    "EV_ASSERT",
    "EV_CALL",
    "EV_ENTER",
    "EV_EXTERN",
    "EV_INPUT",
    "EV_PRED",
    "EV_PRINT",
    "EV_RET",
    "EV_STMT",
    "EV_SUBGRAPH",
    "EV_SYNC",
    "ExecutionRecord",
    "FailureInfo",
    "Frame",
    "InputLog",
    "IntervalInfo",
    "Lock",
    "LogEntry",
    "LogFile",
    "Machine",
    "Message",
    "PCLArray",
    "PCLRuntimeError",
    "Postlog",
    "Prelog",
    "ProcState",
    "Process",
    "RecordCorruptError",
    "RecordDigestError",
    "RecordIOError",
    "RecordVersionError",
    "Scheduler",
    "Segment",
    "Semaphore",
    "SpawnLog",
    "SyncEdgeRec",
    "PersistError",
    "SyncHistory",
    "SyncLog",
    "SyncPrelog",
    "TraceEvent",
    "Tracer",
    "VectorClock",
    "apply_binary",
    "apply_unary",
    "build_interval_index",
    "default_value",
    "format_value",
    "happened_before_or_equal",
    "innermost_open_interval",
    "load_record",
    "record_from_json",
    "record_to_json",
    "run_program",
    "save_record",
]
