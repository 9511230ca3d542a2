"""The virtual shared-memory multiprocessor (execution phase, §3.2.2).

A :class:`Machine` runs a compiled program's processes under a seeded
preemptive scheduler.  Three modes:

* ``"plain"`` — no debugging support at all (the E1 baseline);
* ``"logged"`` — the paper's *object code*: prelogs/postlogs at e-block
  boundaries, sync-unit prelogs for shared variables, input logging, and
  per-segment shared READ/WRITE sets — the full execution-phase cost of
  incremental tracing;
* either mode with ``trace=True`` — additionally produce a full event
  trace (the Balzer-style full-tracing baseline of E2; also how the
  emulation package traces during replay).

The machine always maintains the synchronization history (sync nodes and
sync edges): that is VM semantics, not instrumentation.  It keeps no
vector clock; the history derives clocks when an ordering query asks.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..compiler.compile import CompiledProgram
from ..compiler.eblocks import EBlock
from ..faults import state as _flt
from ..lang import ast
from ..obs import hooks as _obs
from .channels import Channel, Entry, Message, RendezvousExchange
from .errors import AssertionFailure, PCLRuntimeError
from .logging import (
    InputLog,
    LogFile,
    Postlog,
    Prelog,
    SpawnLog,
    SyncLog,
    SyncPrelog,
    copy_value,
    snapshot_values,
)
from .process import Frame, ProcState, Process
from .scheduler import Scheduler
from .sync import Lock, Semaphore, SyncToken
from .tracing import Segment, SyncHistory, TraceEvent, Tracer
from .values import PCLArray, default_value

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.vm imports this module)
    from ..vm.executor import VMExec

#: Cap on per-segment access-site lists (reporting material only).
_MAX_SITES = 64


@dataclass
class FailureInfo:
    """The failure (externally visible symptom, §1) that stopped the run."""

    pid: int
    node_id: int
    message: str
    kind: str  # "assert" | "runtime"
    timestamp: int


@dataclass
class BreakpointHit:
    """A user breakpoint halted the run (§5.7 / Miller-Choi ref [24]).

    All co-operating processes stop together; each one's innermost open
    log interval replays to exactly its halt point, so the debugger can
    present a consistent global state.
    """

    pid: int
    node_id: int
    stmt_label: str
    proc_name: str
    timestamp: int


class _BreakpointSignal(Exception):
    def __init__(self, hit: BreakpointHit) -> None:
        self.hit = hit


@dataclass
class DeadlockInfo:
    """Every live process blocked: a deadlock (§6: PPD helps analyze these)."""

    blocked: list[tuple[int, str, int]]  # (pid, reason, blocking AST node)
    timestamp: int


@dataclass
class SyncStateInfo:
    """Synchronization-object state at the moment the run stopped."""

    #: semaphore name -> (value, approximate holder pids)
    semaphores: dict[str, tuple[int, list[int]]] = field(default_factory=dict)
    #: lock name -> holder pid (None if free)
    locks: dict[str, Optional[int]] = field(default_factory=dict)
    #: channel name -> number of undelivered messages
    channels: dict[str, int] = field(default_factory=dict)


@dataclass
class ExecutionRecord:
    """Everything one execution leaves behind for the debugging phase."""

    compiled: CompiledProgram
    seed: int
    mode: str
    output: list[tuple[int, str]] = field(default_factory=list)
    logs: dict[int, LogFile] = field(default_factory=dict)
    history: SyncHistory = field(default_factory=SyncHistory)
    failure: Optional[FailureInfo] = None
    deadlock: Optional[DeadlockInfo] = None
    shared_final: dict[str, Any] = field(default_factory=dict)
    total_steps: int = 0
    process_names: dict[int, str] = field(default_factory=dict)
    spawn_args: dict[int, list[Any]] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    inputs_consumed: int = 0
    breakpoint_hit: Optional[BreakpointHit] = None
    #: per-process statement counts at the moment the run stopped
    process_steps: dict[int, int] = field(default_factory=dict)
    sync_state: SyncStateInfo = field(default_factory=SyncStateInfo)
    #: sync-node uid -> trace event uid (traced mode only)
    trace_of_sync: dict[int, int] = field(default_factory=dict)
    shared_initial: dict[str, Any] = field(default_factory=dict)
    #: scheduler totals (kept by the VM regardless of obs state)
    preemptions: int = 0
    context_switches: int = 0

    @property
    def output_text(self) -> str:
        return "\n".join(text for _, text in self.output)

    def log_bytes(self) -> int:
        """Total execution-phase log size across all processes (E2)."""
        return sum(log.byte_size() for log in self.logs.values())

    def log_entry_count(self) -> int:
        return sum(len(log) for log in self.logs.values())


class Machine:
    """Runs one execution of a compiled program."""

    def __init__(
        self,
        compiled: CompiledProgram,
        *,
        seed: int = 0,
        mode: str = "logged",
        trace: bool = False,
        inputs: Optional[list[Any]] = None,
        input_seed: int = 1,
        quantum: int = 1,
        max_steps: int = 2_000_000,
        interventions: Optional[dict[tuple[int, int], list[tuple[str, Any]]]] = None,
        breakpoints: Optional[set[str]] = None,
    ) -> None:
        if mode not in ("plain", "logged"):
            raise ValueError(f"unknown mode {mode!r}")
        self.compiled = compiled
        self.mode = mode
        #: whether this run writes the paper's logs; every logging hook reads it
        self._logged = mode == "logged"
        self.seed = seed
        self.scheduler = Scheduler(seed=seed, quantum=quantum)
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.inputs = list(inputs or [])
        self.input_cursor = 0
        self.input_rng = random.Random(input_seed)
        self.max_steps = max_steps

        self.shared: dict[str, Any] = {}
        self.semaphores: dict[str, Semaphore] = {}
        self.locks: dict[str, Lock] = {}
        self.channels: dict[str, Channel] = {}
        self.entries: dict[str, Entry] = {}
        self.processes: dict[int, Process] = {}
        #: the READY processes in pid order; every state change keeps it
        #: (see :class:`Process`), so :meth:`run` never rebuilds it
        self.run_queue: list[Process] = []
        self.history = SyncHistory()
        self.output: list[tuple[int, str]] = []
        self.failure: Optional[FailureInfo] = None
        self.deadlock: Optional[DeadlockInfo] = None
        self.timestamp = 0
        self.total_steps = 0
        self._uid_counter = 0
        self._interval_counter = 0
        self._seg_counter = 0
        self._pending_child_ends: dict[int, list[SyncLog]] = {}
        self._shared_defs: dict[str, int] = {}
        self._spawn_args: dict[int, list[Any]] = {}
        #: what-if interventions (§5.7): (pid, step) -> [(var, value), ...],
        #: applied just before the statement with that step count runs
        self.interventions = interventions or {}
        #: statement labels ("s12") at which to halt every process (§5.7)
        self.breakpoints = breakpoints or set()
        self.breakpoint_hit: Optional[BreakpointHit] = None
        self._trace_of_sync: dict[int, int] = {}
        #: what each procedure's entry and exit and each sync-unit site log,
        #: resolved once from the plan (a loop or chunk boundary's e-block
        #: is an operand of its bytecode)
        self._proc_logs = _proc_boundaries(compiled) if self._logged else {}
        self._post_stmt_prelogs = compiled.plan.post_stmt_prelogs
        self._init_globals()
        self._shared_initial = snapshot_values(self.shared)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _init_globals(self) -> None:
        program = self.compiled.program
        for decl in program.shared:
            if decl.size is not None:
                self.shared[decl.name] = PCLArray(decl.name, decl.var_type, decl.size)
            elif decl.init is not None:
                self.shared[decl.name] = _eval_const(decl.init)
            else:
                self.shared[decl.name] = default_value(decl.var_type)
        for sem in program.semaphores:
            self.semaphores[sem.name] = Semaphore.create(sem.name, sem.initial)
        for lck in program.locks:
            self.locks[lck.name] = Lock(name=lck.name)
        for chan in program.channels:
            self.channels[chan.name] = Channel(name=chan.name, capacity=chan.capacity)
        for entry in program.entries:
            self.entries[entry.name] = Entry(name=entry.name)

    def _create_process(self, proc_name: str, parent: Optional[int]) -> Process:
        pid = len(self.processes)
        process = Process(pid=pid, proc_name=proc_name, parent=parent)
        self.processes[pid] = process
        process.run_queue = self.run_queue
        self.run_queue.append(process)  # the highest pid so far
        return process

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _new_executor(self, process: Process) -> VMExec:
        """Build the bytecode executor (:mod:`repro.vm`) for one process."""
        from ..vm.executor import VMExec

        return VMExec(self, process)

    def run(self) -> ExecutionRecord:
        """Execute the program to completion, failure, or deadlock."""
        main_def = self.compiled.program.proc("main")
        main = self._create_process("main", None)
        self._sync_event(main, "begin", "main", 0)
        main.generator = self._new_executor(main).run_process(main_def, [])

        ready = self.run_queue
        while True:
            if not ready:
                blocked = [
                    p for p in self.processes.values() if p.state is ProcState.BLOCKED
                ]
                if blocked and self.failure is None:
                    self.deadlock = DeadlockInfo(
                        blocked=[
                            (p.pid, p.block_reason, p.blocked_on_node) for p in blocked
                        ],
                        timestamp=self.timestamp,
                    )
                break
            process = self.scheduler.pick(ready)
            try:
                next(process.generator)
            except StopIteration:
                self._on_process_exit(process)
            except AssertionFailure as failure:
                self._fail(process, failure.node_id, str(failure), "assert")
                break
            except _BreakpointSignal as signal:
                # The process stays READY conceptually, but the whole
                # machine halts: "halting co-operating processes in a
                # timely fashion" (§5.7).
                self.breakpoint_hit = signal.hit
                break
            except PCLRuntimeError as error:
                self._fail(process, getattr(error, "node_id", 0), str(error), "runtime")
                break
            self.total_steps += 1
            if _obs.enabled:
                _obs.on_step(process.pid)
            if _flt.active:
                slow = _flt.fire("sched.slow")
                if slow is not None:
                    # A slow scheduler step delays wall time only: the
                    # seeded schedule (and thus the record) is unchanged.
                    _time.sleep(slow.delay_s)
            if self.total_steps > self.max_steps:
                raise PCLRuntimeError(
                    f"execution exceeded {self.max_steps} steps (infinite loop?)"
                )
        return self._make_record()

    def _make_record(self) -> ExecutionRecord:
        sync_state = SyncStateInfo(
            semaphores={
                name: (sem.value, list(sem.current_holders))
                for name, sem in self.semaphores.items()
            },
            locks={name: lock.holder for name, lock in self.locks.items()},
            channels={
                name: chan.pending_messages() for name, chan in self.channels.items()
            },
        )
        record = ExecutionRecord(
            compiled=self.compiled,
            seed=self.seed,
            mode=self.mode,
            output=list(self.output),
            logs={pid: p.log for pid, p in self.processes.items()},
            history=self.history,
            failure=self.failure,
            deadlock=self.deadlock,
            shared_final=snapshot_values(self.shared),
            total_steps=self.total_steps,
            process_names={pid: p.proc_name for pid, p in self.processes.items()},
            spawn_args=dict(self._spawn_args),
            tracer=self.tracer,
            inputs_consumed=self.input_cursor,
            breakpoint_hit=self.breakpoint_hit,
            process_steps={pid: p.steps for pid, p in self.processes.items()},
            sync_state=sync_state,
            trace_of_sync=dict(self._trace_of_sync),
            shared_initial=snapshot_values(self._shared_initial),
            preemptions=self.scheduler.preemptions,
            context_switches=self.scheduler.context_switches,
        )
        if _obs.enabled:
            _obs.on_run_complete(record)
        return record

    def _fail(self, process: Process, node_id: int, message: str, kind: str) -> None:
        process.leave_ready(ProcState.FAILED)
        self.failure = FailureInfo(
            pid=process.pid,
            node_id=node_id,
            message=message,
            kind=kind,
            timestamp=self.timestamp,
        )

    def _on_process_exit(self, process: Process) -> None:
        end_node = self._sync_event(process, "end", process.proc_name, 0)
        process.leave_ready(ProcState.DONE)
        if process.parent is None:
            return
        parent = self.processes[process.parent]
        self._pending_child_ends.setdefault(parent.pid, []).append(end_node)
        parent.live_children -= 1
        if (
            parent.state is ProcState.BLOCKED
            and parent.block_reason == "join"
            and parent.live_children == 0
        ):
            parent.wake(end_node.uid)

    # ------------------------------------------------------------------
    # Synchronization events / history
    # ------------------------------------------------------------------

    def _sync_event(self, process: Process, op: str, obj: str, node_id: int) -> SyncLog:
        """Create a synchronization node, closing/opening internal edges.

        A logged run appends the node itself to the process's log: the
        event is recorded once.
        """
        process.sync_index += 1
        self._uid_counter += 1
        self.timestamp += 1
        node = SyncLog(
            self.timestamp, process.pid, self._uid_counter, op, obj, node_id, process.sync_index
        )
        self.history.add_node(node)
        if _obs.enabled:
            _obs.on_sync_event(process.pid, op)

        segment: Optional[Segment] = process.current_segment
        if segment is not None:
            segment.end_uid = node.uid
        if op == "end":
            process.current_segment = None
        else:
            self._seg_counter += 1
            new_segment = Segment(
                seg_id=self._seg_counter, pid=process.pid, start_uid=node.uid
            )
            self.history.segments.append(new_segment)
            process.current_segment = new_segment

        if self._logged:
            process.log.append(node)
        if self.tracer is not None:
            process.pending_sync_uids.append(node.uid)
        return node

    def bind_pending_syncs(self, process: Process, event_uid: int) -> None:
        """Bind recent sync nodes to the trace event that represents them
        (how the dynamic graph gets its synchronization edges)."""
        for uid in process.pending_sync_uids:
            self._trace_of_sync[uid] = event_uid
        process.pending_sync_uids.clear()

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------

    def _record_access(self, process: Process, name: str, node_id: int, write: bool) -> None:
        if _obs.enabled:
            _obs.on_shared_access(process.pid, name, write)
        if not self._logged:
            return
        segment = process.current_segment
        if segment is None:
            return
        segment.event_count += 1
        if write:
            segment.writes.add(name)
            if len(segment.write_sites) < _MAX_SITES:
                segment.write_sites.append((node_id, name))
        else:
            segment.reads.add(name)
            if len(segment.read_sites) < _MAX_SITES:
                segment.read_sites.append((node_id, name))

    def read_shared(self, process: Process, name: str, node_id: int) -> Any:
        self._record_access(process, name, node_id, write=False)
        return self.shared[name]

    def write_shared(self, process: Process, name: str, value: Any, node_id: int) -> None:
        self._record_access(process, name, node_id, write=True)
        self.shared[name] = value

    def read_shared_elem(self, process: Process, name: str, index: Any, node_id: int) -> Any:
        self._record_access(process, name, node_id, write=False)
        array = self.shared[name]
        if not isinstance(array, PCLArray):
            raise PCLRuntimeError(f"{name!r} is not an array")
        return array.get(index)

    def write_shared_elem(
        self, process: Process, name: str, index: Any, value: Any, node_id: int
    ) -> None:
        self._record_access(process, name, node_id, write=True)
        array = self.shared[name]
        if not isinstance(array, PCLArray):
            raise PCLRuntimeError(f"{name!r} is not an array")
        array.set(index, value)

    def shared_def_uid(self, key: str, base: str | None = None) -> int:
        uid = self._shared_defs.get(key)
        if uid is None and base is not None:
            uid = self._shared_defs.get(base)
        return -1 if uid is None else uid

    def note_shared_def(self, key: str, base: str, uid: int) -> None:
        self._shared_defs[key] = uid
        self._shared_defs[base] = uid

    # ------------------------------------------------------------------
    # Semaphores / locks (§6.2.1)
    # ------------------------------------------------------------------

    def sem_p(self, process: Process, stmt: ast.SemP):
        sem = self.semaphores[stmt.sem]
        token = sem.try_take()
        if token is not None:
            node = self._sync_event(process, "P", stmt.sem, stmt.node_id)
            if token.source_uid >= 0 and token.source_pid != process.pid:
                self.history.add_edge(token.source_uid, node.uid, "sem")
            sem.current_holders.append(process.pid)
        else:
            sem.waiters.append(process)
            process.block(f"P({stmt.sem})", stmt.node_id)
            yield
            sources, _ = process.take_wakeup()
            node = self._sync_event(process, "P", stmt.sem, stmt.node_id)
            for src in sources:
                if self.history.nodes[src].pid != process.pid:
                    self.history.add_edge(src, node.uid, "sem")
            sem.current_holders.append(process.pid)
        yield

    def sem_v(self, process: Process, stmt: ast.SemV):
        node = self._sync_event(process, "V", stmt.sem, stmt.node_id)
        sem = self.semaphores[stmt.sem]
        if process.pid in sem.current_holders:
            sem.current_holders.remove(process.pid)
        elif sem.current_holders:
            sem.current_holders.pop(0)
        token = SyncToken(source_uid=node.uid, source_pid=process.pid)
        waiter = sem.deposit(token)
        if waiter is not None:
            waiter.wake(node.uid)
        yield

    def lock_acquire(self, process: Process, stmt: ast.LockStmt):
        lock = self.locks[stmt.lock]
        if not lock.is_held:
            release = lock.last_release
            node = self._sync_event(process, "lock", stmt.lock, stmt.node_id)
            if release is not None and release.source_pid != process.pid:
                self.history.add_edge(release.source_uid, node.uid, "lock")
            lock.holder = process.pid
        else:
            lock.waiters.append(process)
            process.block(f"lock({stmt.lock})", stmt.node_id)
            yield
            sources, _ = process.take_wakeup()
            node = self._sync_event(process, "lock", stmt.lock, stmt.node_id)
            for src in sources:
                if self.history.nodes[src].pid != process.pid:
                    self.history.add_edge(src, node.uid, "lock")
            lock.holder = process.pid
        yield

    def lock_release(self, process: Process, stmt: ast.UnlockStmt):
        lock = self.locks[stmt.lock]
        if lock.holder != process.pid:
            raise PCLRuntimeError(
                f"unlock({stmt.lock}) by P{process.pid}, held by {lock.holder}"
            )
        node = self._sync_event(process, "unlock", stmt.lock, stmt.node_id)
        lock.last_release = SyncToken(source_uid=node.uid, source_pid=process.pid)
        if lock.waiters:
            # Direct handoff: ownership transfers to the woken waiter so no
            # third process can barge in between wake-up and resume.
            waiter = lock.waiters.pop(0)
            lock.holder = waiter.pid
            waiter.wake(node.uid)
        else:
            lock.holder = None
        yield

    # ------------------------------------------------------------------
    # Channels (§6.2.2)
    # ------------------------------------------------------------------

    def send(self, process: Process, stmt: ast.Send, value: Any):
        channel = self.channels[stmt.channel]
        node = self._sync_event(process, "send", stmt.channel, stmt.node_id)
        message = Message(value=value, send_uid=node.uid, send_pid=process.pid)
        if channel.recv_waiters:
            receiver = channel.recv_waiters.pop(0)
            if channel.is_synchronous:
                message.blocked_sender = process
            receiver.wake(node.uid, value=message)
            if channel.is_synchronous:
                process.block(f"send({stmt.channel})", stmt.node_id)
                yield
                self._sender_unblock(process, stmt)
        elif channel.is_full:
            if channel.is_synchronous:
                message.blocked_sender = process
            channel.send_waiters.append((process, message))
            process.block(f"send({stmt.channel})", stmt.node_id)
            yield
            self._sender_unblock(process, stmt)
        else:
            channel.queue.append(message)
        yield

    def _sender_unblock(self, process: Process, stmt: ast.Send) -> None:
        """The sender's unblock node (Fig 6.1's n5) with its recv->n5 edge."""
        sources, _ = process.take_wakeup()
        node = self._sync_event(process, "unblock", stmt.channel, stmt.node_id)
        for src in sources:
            if self.history.nodes[src].pid != process.pid:
                self.history.add_edge(src, node.uid, "unblock")

    def recv(self, process: Process, node_id: int, channel_name: str):
        channel = self.channels[channel_name]
        woken_sender: Optional[Process] = None
        if channel.queue:
            message = channel.queue.pop(0)
            if channel.send_waiters:
                # A buffer slot freed: promote the oldest blocked sender.
                sender, pending = channel.send_waiters.pop(0)
                channel.queue.append(pending)
                woken_sender = sender
        elif channel.send_waiters:
            sender, message = channel.send_waiters.pop(0)
            if not channel.is_synchronous:
                woken_sender = sender
        else:
            channel.recv_waiters.append(process)
            process.block(f"recv({channel_name})", node_id)
            yield
            _, message = process.take_wakeup()
            if message is None:
                raise PCLRuntimeError(f"recv({channel_name}): woken without a message")

        node = self._sync_event(process, "recv", channel_name, node_id)
        self.history.add_edge(message.send_uid, node.uid, "msg")
        if message.blocked_sender is not None:
            message.blocked_sender.wake(node.uid)
            message.blocked_sender = None
        if woken_sender is not None and woken_sender.state is ProcState.BLOCKED:
            woken_sender.wake(node.uid)
        if self._logged:
            self.timestamp += 1
            process.log.append(
                InputLog(self.timestamp, process.pid, "recv", node_id, copy_value(message.value))
            )
        yield
        return message.value

    # ------------------------------------------------------------------
    # Rendezvous (§6.2.3)
    # ------------------------------------------------------------------

    def call_entry(self, process: Process, node_id: int, entry_name: str, args: list[Any]):
        """The caller side: two sync nodes (call, return) and nothing in
        between — "the internal edge on the caller ... contains zero
        events since the caller is suspended during the call"."""
        entry = self.entries[entry_name]
        node = self._sync_event(process, "call", entry_name, node_id)
        exchange = RendezvousExchange(
            caller=process,
            args=list(args),
            call_uid=node.uid,
            entry=entry_name,
        )
        if entry.acceptors:
            acceptor = entry.acceptors.pop(0)
            acceptor.wake(node.uid, value=exchange)
        else:
            entry.callers.append(exchange)
        process.block(f"call({entry_name})", node_id)
        yield
        sources, _ = process.take_wakeup()
        ret = self._sync_event(process, "return", entry_name, node_id)
        for src in sources:
            if self.history.nodes[src].pid != process.pid:
                self.history.add_edge(src, ret.uid, "rendezvous")
        if self._logged:
            self.timestamp += 1
            process.log.append(
                InputLog(
                    self.timestamp,
                    process.pid,
                    "rendezvous",
                    node_id,
                    copy_value(exchange.reply_value),
                )
            )
        yield
        return exchange.reply_value

    def accept_entry(self, process: Process, node_id: int, entry_name: str):
        """The acceptor side: sync node for accepting, edge from the call."""
        entry = self.entries[entry_name]
        if entry.callers:
            exchange = entry.callers.pop(0)
        else:
            entry.acceptors.append(process)
            process.block(f"accept({entry_name})", node_id)
            yield
            _, exchange = process.take_wakeup()
            if exchange is None:
                raise PCLRuntimeError(f"accept({entry_name}): woken without a caller")
        node = self._sync_event(process, "accept", entry_name, node_id)
        self.history.add_edge(exchange.call_uid, node.uid, "rendezvous")
        process.rendezvous_stack.append(exchange)
        if self._logged:
            self.timestamp += 1
            process.log.append(
                InputLog(
                    self.timestamp, process.pid, "accept", node_id, copy_value(list(exchange.args))
                )
            )
        yield
        return list(exchange.args)

    def reply_entry(self, process: Process, node_id: int, value: Any):
        """Release the caller: sync nodes reply (here) and return (there)."""
        if not process.rendezvous_stack:
            raise PCLRuntimeError("reply with no rendezvous in progress")
        exchange = process.rendezvous_stack[-1]
        if exchange.replied:
            raise PCLRuntimeError(f"double reply to entry {exchange.entry!r}")
        node = self._sync_event(process, "reply", exchange.entry, node_id)
        exchange.reply_value = value
        exchange.replied = True
        exchange.caller.wake(node.uid)
        yield

    def end_accept(self, process: Process, node_id: int):
        """Close an accept block; replies 0 implicitly if the body didn't."""
        exchange = process.rendezvous_stack[-1]
        if not exchange.replied:
            yield from self.reply_entry(process, node_id, 0)
        process.rendezvous_stack.pop()

    # ------------------------------------------------------------------
    # Processes (spawn/join)
    # ------------------------------------------------------------------

    def spawn(self, parent: Process, stmt: ast.Spawn, args: list[Any]):
        node = self._sync_event(parent, "spawn", stmt.name, stmt.node_id)
        child = self._create_process(stmt.name, parent.pid)
        parent.children.append(child.pid)
        parent.live_children += 1
        begin = self._sync_event(child, "begin", stmt.name, 0)
        self.history.add_edge(node.uid, begin.uid, "spawn")
        self._spawn_args[child.pid] = list(args)
        if self._logged:
            self.timestamp += 1
            parent.log.append(
                SpawnLog(
                    self.timestamp,
                    parent.pid,
                    child.pid,
                    stmt.name,
                    [copy_value(a) for a in args],
                    stmt.node_id,
                )
            )
        procdef = self.compiled.program.proc(stmt.name)
        child.generator = self._new_executor(child).run_process(procdef, list(args))
        yield

    def join(self, process: Process, stmt: ast.Join):
        if process.live_children > 0:
            process.block("join", stmt.node_id)
            yield
            process.take_wakeup()
        pending = self._pending_child_ends.pop(process.pid, [])
        node = self._sync_event(process, "join", "", stmt.node_id)
        for end in pending:
            self.history.add_edge(end.uid, node.uid, "join")
        yield

    # ------------------------------------------------------------------
    # Inputs and output
    # ------------------------------------------------------------------

    def input_value(self, process: Process, kind: str, node_id: int, args: list[Any]) -> Any:
        if kind == "input":
            if self.input_cursor < len(self.inputs):
                value = self.inputs[self.input_cursor]
                self.input_cursor += 1
            else:
                value = 0
        else:  # rand(n)
            bound = int(args[0]) if args else 2**31
            if bound <= 0:
                raise PCLRuntimeError(f"rand({bound}): bound must be positive")
            value = self.input_rng.randrange(bound)
        if self._logged:
            self.timestamp += 1
            process.log.append(InputLog(self.timestamp, process.pid, kind, node_id, value))
        return value

    def print_line(self, process: Process, text: str) -> None:
        self.output.append((process.pid, text))

    # ------------------------------------------------------------------
    # E-block logging (§5.1)
    # ------------------------------------------------------------------

    def on_proc_entry(self, process: Process, procdef: ast.ProcDef, args: list[Any]) -> int:
        if not self._logged:
            return -1
        block_node_id, names, _ = self._proc_logs[procdef.name]
        if block_node_id is None:
            # Merged procedure: no e-block, but its entry still starts a
            # synchronization unit (§5.5).
            if names:
                self.timestamp += 1
                process.log.append(
                    SyncPrelog(
                        self.timestamp,
                        process.pid,
                        procdef.node_id,
                        procdef.name,
                        self._shared_snapshot(names),
                    )
                )
            return -1
        self._interval_counter += 1
        interval = self._interval_counter
        self.timestamp += 1
        process.log.append(
            Prelog(
                self.timestamp,
                process.pid,
                interval,
                block_node_id,
                "proc",
                procdef.name,
                self._shared_snapshot(names) if names else {},
                list(map(copy_value, args)),
                process.steps,
            )
        )
        return interval

    def on_proc_exit(
        self, process: Process, procdef: ast.ProcDef, interval_id: int, retval: Any
    ) -> None:
        if interval_id < 0:
            return
        names = self._proc_logs[procdef.name][2]
        self.timestamp += 1
        process.log.append(
            Postlog(
                self.timestamp,
                process.pid,
                interval_id,
                self._shared_snapshot(names) if names else {},
                retval,
                procdef.is_func,
                process.steps,
            )
        )

    def on_loop_entry(self, process: Process, stmt: ast.Stmt, block: EBlock | None) -> int:
        if block is None or not self._logged:
            return -1
        return self._open_region(process, block)

    def on_loop_exit(
        self, process: Process, stmt: ast.Stmt, block: EBlock | None, interval_id: int
    ) -> None:
        if interval_id >= 0:
            self._close_region(process, block, interval_id)

    def on_chunk_entry(self, process: Process, block: EBlock) -> int:
        """Prelog for a §5.4 chunk e-block (same shape as a loop block)."""
        if not self._logged:
            return -1
        return self._open_region(process, block)

    def on_chunk_exit(self, process: Process, block: EBlock, interval_id: int) -> None:
        if interval_id >= 0:
            self._close_region(process, block, interval_id)

    def _open_region(self, process: Process, block: EBlock) -> int:
        """The prelog of a loop or chunk e-block; returns its interval."""
        self._interval_counter += 1
        interval = self._interval_counter
        frame = process.frames[-1]
        self.timestamp += 1
        process.log.append(
            Prelog(
                self.timestamp,
                process.pid,
                interval,
                block.node_id,
                block.kind,
                frame.proc_name,
                self._block_snapshot(frame, block.prelog_locals, block.shared_ref),
                [],
                process.steps,
            )
        )
        return interval

    def _close_region(self, process: Process, block: EBlock, interval_id: int) -> None:
        """The postlog of a loop or chunk e-block."""
        self.timestamp += 1
        process.log.append(
            Postlog(
                self.timestamp,
                process.pid,
                interval_id,
                self._block_snapshot(process.frames[-1], block.postlog_locals, block.shared_mod),
                None,
                False,
                process.steps,
            )
        )

    def maybe_skip_loop(self, executor: VMExec, stmt: ast.Stmt, block: EBlock | None) -> bool:
        """Normal execution never skips loops; the replay engine overrides."""
        return False

    def maybe_skip_chunk(self, executor: VMExec, block: EBlock) -> bool:
        """Normal execution never skips chunks; the replay engine overrides."""
        return False

    def maybe_skip_call(self, procdef: ast.ProcDef, call_uid: int) -> Optional[Postlog]:
        """The postlog that stands in for a skipped user call, or ``None``
        to run the call.  Normal execution runs every call; the replay
        engine skips nested e-block procedures."""
        return None

    def before_stmt(self, process: Process, stmt: ast.Stmt) -> None:
        """Pre-statement hook: breakpoints and what-if interventions (§5.7).

        Only invoked by the executor when breakpoints or interventions
        exist (``hooks_needed``), so the common case pays nothing.
        """
        if self.breakpoints and stmt.stmt_label in self.breakpoints:
            # Un-count the statement: it has not executed, so replay of the
            # open interval must stop just before it too.
            process.steps -= 1
            raise _BreakpointSignal(
                BreakpointHit(
                    pid=process.pid,
                    node_id=stmt.node_id,
                    stmt_label=stmt.stmt_label,
                    proc_name=process.frames[-1].proc_name if process.frames else "",
                    timestamp=self.timestamp,
                )
            )
        if not self.interventions:
            return
        changes = self.interventions.get((process.pid, process.steps))
        if not changes:
            return
        frame = process.frames[-1] if process.frames else None
        for name, value in changes:
            if frame is not None and name in frame.vars:
                frame.vars[name] = value
            elif name in self.shared:
                self.shared[name] = value

    @property
    def hooks_needed(self) -> bool:
        """Whether the executor must call before_stmt at every statement."""
        return bool(self.breakpoints or self.interventions)

    @property
    def sync_prelog_sites(self):
        """Statement node_ids that need an after_stmt call (empty = none)."""
        return self._post_stmt_prelogs if self._logged else ()

    def after_stmt(self, process: Process, stmt: ast.Stmt) -> None:
        """Sync-unit prelog after a unit-starting statement (§5.5)."""
        if not self._logged:
            return
        shared_names = self._post_stmt_prelogs.get(stmt.node_id)
        if not shared_names:
            return
        self.timestamp += 1
        process.log.append(
            SyncPrelog(
                self.timestamp,
                process.pid,
                stmt.node_id,
                process.frames[-1].proc_name,
                self._shared_snapshot(shared_names),
            )
        )

    def _shared_snapshot(self, names) -> dict[str, Any]:
        shared = self.shared
        return {name: copy_value(shared[name]) for name in names}

    def _block_snapshot(self, frame: Frame, local_names, shared_names) -> dict[str, Any]:
        """A loop or chunk block's log values: copies of the named locals
        of *frame* it has, then of the named shared variables (a shared
        value replaces a local of the same name in place)."""
        local_vars = frame.vars
        values = (
            {name: copy_value(local_vars[name]) for name in local_names if name in local_vars}
            if local_names
            else {}
        )
        shared = self.shared
        for name in shared_names:
            values[name] = copy_value(shared[name])
        return values

    # ------------------------------------------------------------------
    # Tracing support
    # ------------------------------------------------------------------

    def emit_trace(self, process: Process, **kwargs) -> TraceEvent:
        frame: Optional[Frame] = process.frames[-1] if process.frames else None
        event = TraceEvent(
            uid=self.tracer.next_uid(),
            pid=process.pid,
            proc=frame.proc_name if frame else process.proc_name,
            frame_uid=frame.uid if frame else 0,
            **kwargs,
        )
        return self.tracer.emit(event)

    def attach_error_site(self, error: PCLRuntimeError, stmt: ast.Stmt, process: Process) -> None:
        if not getattr(error, "node_id", 0):
            error.node_id = stmt.node_id  # type: ignore[attr-defined]
        if getattr(error, "pid", -1) < 0:
            error.pid = process.pid  # type: ignore[attr-defined]


def _proc_boundaries(compiled: CompiledProgram) -> dict[str, tuple]:
    """What each procedure's entry and exit log (§5.1, §5.5), read off the
    plan once: name -> (e-block node id, prelog names, postlog names) for
    an e-block procedure, (None, entry-unit names, ()) for a merged one."""
    plan = compiled.plan
    table: dict[str, tuple] = {}
    for proc in compiled.program.procs:
        block = plan.proc_block(proc.name)
        if block is None:
            table[proc.name] = (None, plan.entry_unit_prelogs.get(proc.name, ()), ())
        else:
            table[proc.name] = (block.node_id, block.shared_ref, block.shared_mod)
    return table


def _eval_const(expr: ast.Expr) -> Any:
    """Evaluate a constant initializer of a shared declaration."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        return -_eval_const(expr.operand)
    raise PCLRuntimeError("shared initializers must be constants")


def run_program(
    source_or_compiled,
    *,
    seed: int = 0,
    mode: str = "logged",
    trace: bool = False,
    inputs: Optional[list[Any]] = None,
    input_seed: int = 1,
    quantum: int = 1,
    max_steps: int = 2_000_000,
    policy=None,
) -> ExecutionRecord:
    """Compile (if needed) and run a PCL program in one call."""
    from ..compiler.compile import compile_program

    if isinstance(source_or_compiled, CompiledProgram):
        compiled = source_or_compiled
    else:
        compiled = compile_program(source_or_compiled, policy=policy)
    machine = Machine(
        compiled,
        seed=seed,
        mode=mode,
        trace=trace,
        inputs=inputs,
        input_seed=input_seed,
        quantum=quantum,
        max_steps=max_steps,
    )
    return machine.run()
