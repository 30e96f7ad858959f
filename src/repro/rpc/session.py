"""RPC sessions.

A *ground thread* — one whose execution was not initiated by an RPC —
must bracket its remote work in a session.  The session scopes two
guarantees the runtime gives (paper §3.1): it will respond to remote
data references, and it will keep cached data coherent.  Remote
pointers are meaningless outside their session.

:class:`RpcSession` is the user-facing context manager; the per-space
bookkeeping lives in :class:`SessionState`, which the smart runtime
subclasses with its cache, dirty set and memory-operation batch.
"""

from __future__ import annotations

import itertools
from typing import Optional, Set

from repro.rpc.errors import SessionError

_session_numbers = itertools.count(1)

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _base36(number: int) -> str:
    """Session numbers in base 36: every session-stamped message carries
    the id as a padded XDR string, and two digits (1 295 sessions a
    process) keep that the same width where decimal grew at the 100th."""
    digits = ""
    while number:
        number, digit = divmod(number, 36)
        digits = _DIGITS[digit] + digits
    return digits or "0"


class SessionState:
    """Per-address-space state of one RPC session."""

    def __init__(self, session_id: str, ground_site: str) -> None:
        self.session_id = session_id
        self.ground_site = ground_site
        self.participants: Set[str] = {ground_site}
        self.call_depth = 0
        self.closed = False

    def note_participant(self, site_id: str) -> None:
        """Record a site that has taken part in the session."""
        self.participants.add(site_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionState({self.session_id!r}, ground={self.ground_site!r},"
            f" depth={self.call_depth})"
        )


class RpcSession:
    """Context manager declaring an RPC session on the ground runtime.

    Usage::

        with runtime.session() as session:
            result = stub.search(session, root_pointer, ratio)
        # leaving the block writes back modified data and multicasts
        # the invalidation (smart runtime); remote pointers die here.
    """

    def __init__(self, runtime: "RpcRuntimeLike") -> None:
        self._runtime = runtime
        self.session_id = (
            f"{runtime.site_id}#{_base36(next(_session_numbers))}"
        )
        self._state: Optional[SessionState] = None

    @property
    def state(self) -> SessionState:
        """The ground-side session state (only valid while open)."""
        if self._state is None:
            raise SessionError(
                f"session {self.session_id!r} is not open"
            )
        return self._state

    def __enter__(self) -> "RpcSession":
        self._state = self._runtime.begin_session(self.session_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        state, self._state = self._state, None
        if state is not None:
            self._runtime.end_session(state)


class RpcRuntimeLike:
    """Protocol of what :class:`RpcSession` needs from a runtime."""

    site_id: str

    def begin_session(self, session_id: str) -> SessionState:
        """Create ground-side state for a new session."""
        raise NotImplementedError

    def end_session(self, state: SessionState) -> None:
        """Tear a session down (write-back + invalidate in smart RPC)."""
        raise NotImplementedError
