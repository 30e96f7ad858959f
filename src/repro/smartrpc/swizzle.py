"""Pointer swizzling and unswizzling (paper §3.2).

*Unswizzling* translates an ordinary local pointer into a long pointer
when data leaves the address space; *swizzling* translates a long
pointer into an ordinary local address when data (or an argument)
arrives.  The translations consult, in order,

1. the local typed heap's base addresses — the address is original
   local data, so the long pointer is ``(this space, address,
   allocation's type id)``; and
2. the session's data allocation table — the address is a cached copy
   of remote data, so its long pointer is the table row's.

The two never overlap: heap chunks and cache pages are distinct pages
of the space.  Long pointers reference allocation bases; an interior
pointer raises
:class:`~repro.smartrpc.errors.SwizzleError` (documented simplification,
see DESIGN.md §6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.smartrpc.errors import DanglingPointerError, SwizzleError
from repro.smartrpc.long_pointer import LongPointer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState


class Swizzler:
    """Pointer translation for one session in one address space."""

    def __init__(
        self, runtime: "SmartRpcRuntime", state: "SmartSessionState"
    ) -> None:
        self.runtime = runtime
        self.state = state

    def unswizzle(self, pointer: int) -> Optional[LongPointer]:
        """Ordinary local pointer -> long pointer (NULL -> ``None``).

        Original local data is one probe of the heap's base-address
        dict; only a miss there consults the table, and only a pointer
        that neither names resolves the interior address it may be.
        """
        if pointer == 0:
            return None
        runtime = self.runtime
        allocation = runtime.heap.allocation_based_at(pointer)
        if allocation is not None:
            # A live allocation's base is positive: no address check.
            return tuple.__new__(
                LongPointer, (runtime.site_id, pointer, allocation.type_id)
            )
        entry = self.state.cache.entry_containing(pointer)
        if entry is not None:
            if pointer != entry.local_address:
                raise SwizzleError(
                    f"interior pointer {pointer:#x} into cached "
                    f"{entry.pointer!r} cannot be unswizzled"
                )
            return entry.pointer
        allocation = runtime.heap.allocation_at(pointer)
        if allocation is not None:
            raise SwizzleError(
                f"interior pointer {pointer:#x} into local allocation "
                f"at {allocation.address:#x} cannot be unswizzled"
            )
        raise SwizzleError(
            f"pointer {pointer:#x} in {runtime.site_id!r} is neither "
            "cached remote data nor a live heap allocation"
        )

    def swizzle(self, pointer: Optional[LongPointer]) -> int:
        """Long pointer -> ordinary local pointer (``None`` -> NULL).

        For remote data this allocates (or reuses — the caching effect)
        a protected placeholder; for data whose original lives here it
        is simply the original address, which must be a live
        allocation's base.
        """
        if pointer is None:
            return 0
        if pointer[0] == self.runtime.site_id:
            heap = self.runtime.heap
            if heap.allocation_based_at(pointer[1]) is None:
                allocation = heap.allocation_at(pointer[1])
                if allocation is not None:
                    raise SwizzleError(
                        f"interior {pointer!r} into local allocation at "
                        f"{allocation.address:#x} cannot be swizzled"
                    )
                raise DanglingPointerError(
                    f"{pointer!r} does not reference live heap data in "
                    f"its home space"
                )
            return pointer[1]
        return self.state.cache.ensure_entry(pointer).local_address

