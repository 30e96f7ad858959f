"""Memory faults.

:class:`AccessViolation` models the access-violation exception the MMU
raises on a protected access; the runtime registers a handler for it
(SunOS signal handler / Mach exception port in the original).
:class:`SegmentationError` models an access to an unmapped address — a
genuine bug, never handled transparently.
"""

from __future__ import annotations

import enum


class FaultKind(enum.Enum):
    """Which kind of access triggered the fault."""

    READ = "read"
    WRITE = "write"


class SegmentationError(Exception):
    """Access to an address that is not mapped in the address space."""

    def __init__(self, space_id: str, address: int, kind: FaultKind) -> None:
        super().__init__(
            f"segmentation fault: {kind.value} of unmapped address "
            f"{address:#x} in space {space_id!r}"
        )
        self.space_id = space_id
        self.address = address
        self.kind = kind


class AccessViolation(Exception):
    """A protected page was accessed.

    Carries everything the paper's fault handler needs: which address
    faulted (hence which page), and whether the access was a read or a
    write.  Modern kernels deliver exactly this information ("catching
    the exception, the handler determines at which location the
    exception was raised").
    """

    def __init__(
        self,
        space_id: str,
        address: int,
        kind: FaultKind,
        page_number: int,
    ) -> None:
        # The message is formatted only if shown: every lazy fault of a
        # session raises one of these and a handler resolves it.
        super().__init__(space_id, address, kind, page_number)
        self.space_id = space_id
        self.address = address
        self.kind = kind
        self.page_number = page_number

    def __str__(self) -> str:
        return (
            f"access violation: {self.kind.value} of protected address "
            f"{self.address:#x} (page {self.page_number}) in space "
            f"{self.space_id!r}"
        )


class FaultLoopError(Exception):
    """The fault handler failed to make progress.

    Raised by :class:`repro.memory.accessor.Mem` when the same access
    keeps faulting after the handler ran — the simulated equivalent of a
    handler that returns without fixing the mapping, which on real
    hardware would spin forever re-executing the faulting instruction.
    """
