"""Process state for the virtual shared-memory multiprocessor."""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Generator, Optional

from .logging import LogFile


_pid = attrgetter("pid")


class ProcState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


@dataclass(slots=True)
class Frame:
    """One activation record."""

    proc_name: str
    vars: dict[str, Any] = field(default_factory=dict)
    #: variable name (or "name[i]" element key) -> trace event uid of the
    #: last definition, used when full tracing is on
    def_events: dict[str, int] = field(default_factory=dict)
    call_node_id: int = 0  # AST node of the call site (0 for process root)
    uid: int = 0  # unique frame instance id (for dynamic control deps)
    enter_uid: int = -1  # trace uid of this frame's EV_ENTER event


class Process:
    """One PCL process: executor generator plus bookkeeping.

    The generator yields at every preemption point (statement boundaries and
    shared-memory accesses); the scheduler drives it one step at a time,
    which is how the virtual machine models SMMP interleaving.
    """

    def __init__(self, pid: int, proc_name: str, parent: Optional[int]) -> None:
        self.pid = pid
        self.proc_name = proc_name
        self.parent = parent
        self.state = ProcState.READY
        self.generator: Optional[Generator[None, None, None]] = None
        self.frames: list[Frame] = []
        self.log = LogFile(pid)
        self.children: list[int] = []
        self.live_children = 0
        self.block_reason = ""
        self.blocked_on_node = 0  # AST node id of the blocking statement
        #: sync-node uids whose events caused our wake-up (edge sources)
        self.wake_sources: list[int] = []
        #: mailbox value handed over by a channel send while we were blocked
        self.wake_value: Any = None
        self.sync_index = 0  # per-process sync-event counter
        self.steps = 0  # preemption points executed
        self.current_segment = None  # the open Segment (internal edge)
        #: sync-node uids awaiting binding to a trace event (traced mode)
        self.pending_sync_uids: list[int] = []
        #: active rendezvous exchanges this process is serving, innermost last
        self.rendezvous_stack: list = []
        #: the owning machine's run queue: exactly its READY processes, in
        #: pid order.  ``block``/``wake``/``leave_ready`` keep this process's
        #: membership in step with its state; ``None`` for a process driven
        #: directly (interval replay), which has no queue to keep.
        self.run_queue: Optional[list[Process]] = None

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    def block(self, reason: str, node_id: int = 0) -> None:
        self.leave_ready(ProcState.BLOCKED)
        self.block_reason = reason
        self.blocked_on_node = node_id

    def leave_ready(self, state: ProcState) -> None:
        """Leave the READY set for *state* (BLOCKED, DONE or FAILED)."""
        if self.run_queue is not None and self.state is ProcState.READY:
            self.run_queue.remove(self)
        self.state = state

    def wake(self, source_uid: int, value: Any = None) -> None:
        """Mark READY and record the causal source of the wake-up."""
        if self.run_queue is not None and self.state is not ProcState.READY:
            insort(self.run_queue, self, key=_pid)
        self.state = ProcState.READY
        self.block_reason = ""
        self.wake_sources.append(source_uid)
        if value is not None:
            self.wake_value = value

    def take_wakeup(self) -> tuple[list[int], Any]:
        """Consume and reset the wake-up bookkeeping."""
        sources, value = self.wake_sources, self.wake_value
        self.wake_sources = []
        self.wake_value = None
        return sources, value
