"""Network messages.

A :class:`Message` is what travels between sites.  Its payload is always
a ``bytes`` object — runtimes serialise through :mod:`repro.xdr` before
sending, exactly as the original system serialised through Sun XDR —
so the byte counts charged to the network are the real encoded sizes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class MessageKind(enum.Enum):
    """Why a message was sent; used for per-kind statistics.

    The paper's Figure 5 counts *callbacks*: messages a callee sends back
    to the data's home space asking for the contents of a pointer.  Both
    the fully lazy baseline's per-dereference callbacks and the proposed
    method's page-fault-driven data requests are tagged
    :attr:`DATA_REQUEST` so one counter serves both curves.
    """

    CALL = "call"
    REPLY = "reply"
    DATA_REQUEST = "data_request"
    DATA_REPLY = "data_reply"
    # Two-phase session-end write-back (DESIGN.md §12): every dirty
    # home stages its batch on prepare; only when every prepare is
    # acknowledged does the ground commit, so a crash between phases
    # never leaves one home space half-updated.
    WRITEBACK_PREPARE = "writeback_prepare"
    WRITEBACK_PREPARE_ACK = "writeback_prepare_ack"
    WRITEBACK_COMMIT = "writeback_commit"
    WRITEBACK_COMMIT_ACK = "writeback_commit_ack"
    INVALIDATE = "invalidate"
    MEMORY_BATCH = "memory_batch"
    MEMORY_BATCH_REPLY = "memory_batch_reply"
    TYPE_QUERY = "type_query"
    TYPE_REPLY = "type_reply"
    # Site directory traffic (repro.namesvc.directory): how processes
    # hosting address spaces find, monitor and release each other.
    SITE_REGISTER = "site_register"
    SITE_DEREGISTER = "site_deregister"
    SITE_LOOKUP = "site_lookup"
    SITE_HEARTBEAT = "site_heartbeat"
    SITE_LIST = "site_list"
    DIR_REPLY = "dir_reply"
    # Process-host control plane (repro.transport.host).
    SHUTDOWN = "shutdown"
    SHUTDOWN_ACK = "shutdown_ack"
    # Readiness barrier + remote scenario driver (crash-matrix tests):
    # STATUS blocks until the host reaches a requested liveness state;
    # RUN_SESSION asks a host to act as the ground site of a scripted
    # session (so caller-crash cells can kill a real process).
    STATUS = "status"
    STATUS_REPLY = "status_reply"
    RUN_SESSION = "run_session"
    RUN_REPLY = "run_reply"

    # Members are singletons, so identity hashing is exact — and every
    # per-kind dict (handlers, counters) probes with one, where Enum's
    # own name-based ``__hash__`` is a Python-level call per probe.
    __hash__ = object.__hash__


_message_ids = itertools.count(1)

#: The next message id.  A C callable: a ``Message`` built by its
#: ``__init__`` or field by field (as a carrier's serving loop does)
#: takes its id with no Python frame.
next_message_id = _message_ids.__next__


@dataclass
class Message:
    """One simulated network message.

    Attributes:
        src: sending site id.
        dst: destination site id.
        kind: protocol role of the message.
        payload: encoded body.
        msg_id: unique id for tracing.
    """

    src: str
    dst: str
    kind: MessageKind
    payload: bytes
    msg_id: int = field(default_factory=next_message_id)

    @property
    def size(self) -> int:
        """Encoded payload size in bytes (what the wire model charges)."""
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.msg_id} {self.src}->{self.dst} "
            f"{self.kind.value} {self.size}B)"
        )
