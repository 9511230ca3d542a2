"""Typed errors of the runtime.

Program-level failures of the virtual SMMP, and the errors a saved
record that cannot be read raises (:class:`PersistError` and its
subclasses, DESIGN §3.13).  The persist errors are defined here, not in
:mod:`repro.runtime.persist`, so that a caller can catch them without
importing the persist layer and the compiler behind it.
"""

from __future__ import annotations

from ..lang.errors import PCLError


class PCLRuntimeError(PCLError):
    """A program-level runtime error (bad index, division by zero, ...)."""


class AssertionFailure(PCLRuntimeError):
    """An ``assert(...)`` statement evaluated to false.

    In the paper's terminology this is a *failure* — the externally visible
    symptom that starts a debugging session.
    """

    def __init__(self, message: str, node_id: int = 0, pid: int = -1) -> None:
        super().__init__(message)
        self.node_id = node_id
        self.pid = pid


class DeadlockError(PCLError):
    """Raised (optionally) when every live process is blocked."""

    def __init__(self, message: str, blocked: list[tuple[int, str]]) -> None:
        super().__init__(message)
        #: (pid, description of what it is blocked on)
        self.blocked = blocked


class PersistError(ValueError):
    """A saved record could not be read.

    Raised on corrupt JSON, a missing/future ``version`` field, a
    structurally broken envelope, a content-digest mismatch, or an
    unreadable file — always instead of a raw ``KeyError`` /
    ``json.JSONDecodeError`` / ``OSError`` escaping to the caller.
    Carries the offending ``path`` (when loading from a file) and
    ``field`` (the envelope key that was missing or malformed) so a
    debug service can return a structured error instead of a stack
    trace; after quarantine, ``quarantined`` names where the bad file
    was moved.

    The subclasses form the typed error vocabulary of DESIGN §3.13:

    * :class:`RecordCorruptError` — not JSON / broken envelope,
    * :class:`RecordVersionError` — missing or unsupported version,
    * :class:`RecordDigestError` — envelope parses but its content
      digest does not match (bit rot, tampering, torn write),
    * :class:`RecordIOError` — the file itself cannot be read.
    """

    def __init__(
        self, message: str, *, path: str | None = None, field: str | None = None
    ) -> None:
        detail = message
        if field is not None:
            detail += f" (field {field!r})"
        if path is not None:
            detail += f" [{path}]"
        super().__init__(detail)
        self.path = path
        self.field = field
        self.quarantined: str | None = None


class RecordCorruptError(PersistError):
    """The document is not valid JSON or its envelope is broken."""


class RecordVersionError(PersistError):
    """The document's ``version`` is missing or not readable by this build."""


class RecordDigestError(PersistError):
    """The document parses but fails its content-digest check."""


class RecordIOError(PersistError):
    """The record file could not be read at all."""
