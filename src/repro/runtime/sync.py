"""Semaphores and locks for the virtual SMMP (§6.2.1).

Synchronization-edge construction follows the paper: a V that unblocks a
waiting P yields an edge from the V node to the unblock node; a V that
raises the semaphore from zero and is later consumed by a P of another
process yields an edge from the V to that P.  We implement both cases with
one mechanism: every V deposits a *token* stamped with the V's sync node,
and every successful P consumes the oldest token, inheriting its causality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .process import Process


@dataclass
class SyncToken:
    """One unit of semaphore value with its causal provenance."""

    source_uid: int  # sync-node uid of the V (or -1 for initial value)
    source_pid: int


@dataclass
class Semaphore:
    """A counting semaphore whose value units carry provenance tokens."""

    name: str
    tokens: list[SyncToken] = field(default_factory=list)
    waiters: list[Process] = field(default_factory=list)
    #: pids that completed a P without a matching V — approximates "who
    #: holds" a mutex-style semaphore, used by deadlock-cause analysis
    current_holders: list[int] = field(default_factory=list)

    @classmethod
    def create(cls, name: str, initial: int) -> "Semaphore":
        sem = cls(name=name)
        sem.tokens = [SyncToken(source_uid=-1, source_pid=-1) for _ in range(initial)]
        return sem

    @property
    def value(self) -> int:
        return len(self.tokens)

    def try_take(self) -> Optional[SyncToken]:
        """Consume one token if available (FIFO), else None."""
        if self.tokens:
            return self.tokens.pop(0)
        return None

    def deposit(self, token: SyncToken) -> Optional[Process]:
        """A V operation: hand the token to the oldest waiter, or bank it.

        Returns the waiter to wake, if any.
        """
        if self.waiters:
            return self.waiters.pop(0)
        self.tokens.append(token)
        return None


@dataclass
class Lock:
    """A mutual-exclusion lock; release->acquire forms a sync edge."""

    name: str
    holder: Optional[int] = None  # pid
    waiters: list[Process] = field(default_factory=list)
    #: provenance of the last release (for the release->acquire edge)
    last_release: Optional[SyncToken] = None

    @property
    def is_held(self) -> bool:
        return self.holder is not None
