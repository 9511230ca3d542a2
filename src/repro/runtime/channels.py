"""Message channels for inter-process communication (§6.2.2).

Sync edges for messages follow the paper exactly:

* an edge from the *send* node to the *receive* node, and
* for blocking sends (synchronous channels, capacity 0), a second edge
  from the receive node back to the sender's *unblock* node — the paper's
  Fig 6.1 nodes n3 (blocking send), n4 (receive), n5 (unblock), where the
  internal edge n3->n5 "contains zero events".

Bounded channels block senders when full; the receive that frees the slot
wakes the sender, again with a receive->unblock edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .process import Process


@dataclass
class Message:
    """One in-flight message with its causal provenance."""

    value: Any
    send_uid: int  # sync-node uid of the send
    send_pid: int
    #: the sending process if it is blocked waiting for this delivery
    blocked_sender: Optional[Process] = None


@dataclass
class RendezvousExchange:
    """One in-flight rendezvous between a caller and an acceptor (§6.2.3)."""

    caller: Process
    args: list[Any]
    call_uid: int
    entry: str
    reply_value: Any = None
    replied: bool = False


@dataclass
class Entry:
    """A rendezvous entry point: callers and acceptors queue here."""

    name: str
    callers: list[RendezvousExchange] = field(default_factory=list)
    acceptors: list[Process] = field(default_factory=list)


@dataclass
class Channel:
    """A message channel; capacity 0 means synchronous (blocking send)."""

    name: str
    capacity: Optional[int]  # None = unbounded
    queue: list[Message] = field(default_factory=list)
    recv_waiters: list[Process] = field(default_factory=list)
    send_waiters: list[tuple[Process, Message]] = field(default_factory=list)

    @property
    def is_synchronous(self) -> bool:
        return self.capacity == 0

    @property
    def is_full(self) -> bool:
        if self.capacity is None:
            return False
        if self.capacity == 0:
            return True  # synchronous: every send must rendezvous
        return len(self.queue) >= self.capacity

    def pending_messages(self) -> int:
        return len(self.queue) + len(self.send_waiters)
