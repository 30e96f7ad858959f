"""The system-controlled typed heap.

The paper assumes that all data reachable through long pointers lives
"in the heap area under the system control".  That assumption does two
jobs and this class implements both:

* every allocation carries its *data type specifier*, so the home
  runtime can walk the transitive closure of a pointer (it knows where
  the pointer fields are) and can encode the data canonically for a
  heterogeneous peer;
* an address can be resolved back to its allocation: a long pointer
  names an allocation base, so the runtime resolves one by a single
  probe of the base-address dict (:attr:`Heap.allocation_based_at`);
  an arbitrary interior address resolves by a bisect
  (:meth:`Heap.allocation_at`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.address_space import AddressSpace
from repro.memory.page import Protection

_CHUNK_PAGES = 16
_ALIGNMENT = 8


class HeapError(Exception):
    """Invalid heap usage (double free, foreign pointer, bad size)."""


@dataclass
class Allocation:
    """One live heap allocation."""

    address: int
    size: int
    type_id: str

    @property
    def end(self) -> int:
        """One past the last byte of the allocation."""
        return self.address + self.size

    def contains(self, address: int) -> bool:
        """Whether ``address`` points into this allocation."""
        return self.address <= address < self.end


class Heap:
    """A bump allocator with a per-size free list over an address space.

    Simplicity is deliberate: the paper's contribution is not the
    allocator, and a bump+freelist design keeps behaviour deterministic
    for the benchmarks while supporting the malloc/free traffic of
    ``extended_malloc``/``extended_free``.
    """

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self._allocations: Dict[int, Allocation] = {}
        #: The live allocation starting exactly at an address, or
        #: ``None`` — the base-address dict's own ``get``: a long
        #: pointer always names a base, and the home resolves one per
        #: datum it walks, encodes or applies.
        self.allocation_based_at = self._allocations.get
        self._sorted_addresses: List[int] = []
        self._free_lists: Dict[int, List[int]] = {}
        self._bump = 0
        self._limit = 0

    # -- allocation --------------------------------------------------------

    def malloc(self, size: int, type_id: str) -> int:
        """Allocate ``size`` bytes typed ``type_id``; return the address."""
        if size <= 0:
            raise HeapError(f"bad allocation size {size!r}")
        rounded = _round_up(size, _ALIGNMENT)
        address = self._take_free(rounded)
        if address is None:
            address = self._bump_alloc(rounded)
        allocation = Allocation(address, rounded, type_id)
        self._allocations[address] = allocation
        bisect.insort(self._sorted_addresses, address)
        return address

    def free(self, address: int) -> None:
        """Release the allocation starting at ``address``."""
        allocation = self._allocations.pop(address, None)
        if allocation is None:
            raise HeapError(
                f"free of non-allocated address {address:#x} in "
                f"{self.space.space_id!r}"
            )
        index = bisect.bisect_left(self._sorted_addresses, address)
        del self._sorted_addresses[index]
        self._free_lists.setdefault(allocation.size, []).append(address)

    # -- lookup --------------------------------------------------------------

    def allocation_at(self, address: int) -> Optional[Allocation]:
        """The live allocation containing ``address``, or ``None``."""
        index = bisect.bisect_right(self._sorted_addresses, address)
        if index == 0:
            return None
        candidate = self._allocations[self._sorted_addresses[index - 1]]
        # ``candidate.contains(address)``, inline: every fault asks.
        if address < candidate.address + candidate.size:
            return candidate
        return None

    @property
    def live_allocations(self) -> List[Allocation]:
        """All live allocations in address order."""
        return [self._allocations[a] for a in self._sorted_addresses]

    @property
    def live_bytes(self) -> int:
        """Total bytes currently allocated."""
        return sum(a.size for a in self._allocations.values())

    # -- internals ------------------------------------------------------------

    def _take_free(self, size: int) -> Optional[int]:
        free = self._free_lists.get(size)
        if free:
            return free.pop()
        return None

    def _bump_alloc(self, size: int) -> int:
        if self._bump + size > self._limit:
            pages = max(_CHUNK_PAGES, -(-size // self.space.page_size))
            base = self.space.map_region(pages, Protection.READ_WRITE)
            # Regions need not be contiguous with the previous chunk (the
            # cache manager maps regions in the same space), so restart the
            # bump pointer at the new chunk and abandon any old tail.
            self._bump = base
            self._limit = base + pages * self.space.page_size
            if self._bump + size > self._limit:
                raise HeapError(f"allocation of {size} bytes failed to fit")
        address = self._bump
        self._bump += size
        return address


def _round_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)
