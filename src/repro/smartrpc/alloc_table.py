"""The data allocation table (paper §3.2, Table 1).

Per address space and session, the runtime "maintains a data allocation
table that records what data should be transferred from remote address
spaces.  The entries of the table are the page number, the offset
within the page, and a long pointer."

This implementation additionally tracks each entry's local size and
residency, and provides the two lookups the method needs constantly:

* by long pointer — "has this remote datum already been swizzled here?"
  (the caching effect);
* by local address — unswizzling an ordinary pointer back to its long
  pointer;
* by page — "which data are allocated to the faulted page?".
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer


@dataclass(eq=False)
class AllocEntry:
    """One row of the data allocation table.

    Identity-hashed (``eq=False``): two rows are the same row only if
    they are the same object, which lets sets of entries (the relayed
    modified-data-set) survive provisional-pointer repointing.
    """

    pointer: LongPointer
    local_address: int
    size: int
    page_number: int
    offset: int
    resident: bool = False
    #: Shipped-vs-touched accounting (the adaptive policy's signal):
    #: ``shipped`` marks data that arrived on the fault-driven fill
    #: path, ``prefetched`` the subset shipped beyond the demanded
    #: roots, ``touched`` whether the program ever accessed it.
    shipped: bool = False
    prefetched: bool = False
    touched: bool = False

    @property
    def end(self) -> int:
        """One past the entry's last local byte."""
        return self.local_address + self.size

    def contains(self, address: int) -> bool:
        """Whether a local address falls inside this entry."""
        return self.local_address <= address < self.end


class DataAllocationTable:
    """The per-space, per-session data allocation table."""

    def __init__(self) -> None:
        self._by_pointer: Dict[LongPointer, AllocEntry] = {}
        self._by_page: Dict[int, List[AllocEntry]] = {}
        self._sorted_addresses: List[int] = []
        self._by_address: Dict[int, AllocEntry] = {}

    # -- mutation -----------------------------------------------------------

    def add(self, entry: AllocEntry) -> None:
        """Insert a new row; the long pointer must be new."""
        if entry.pointer in self._by_pointer:
            raise SmartRpcError(
                f"allocation table already has {entry.pointer!r}"
            )
        if entry.local_address in self._by_address:
            raise SmartRpcError(
                f"allocation table already maps local address "
                f"{entry.local_address:#x}"
            )
        self._by_pointer[entry.pointer] = entry
        on_page = self._by_page.get(entry.page_number)
        if on_page is None:
            self._by_page[entry.page_number] = [entry]
        else:
            on_page.append(entry)
        # Placeholders are carved out of fresh pages, so addresses
        # mostly arrive in ascending order: append, don't search.
        addresses = self._sorted_addresses
        if not addresses or entry.local_address > addresses[-1]:
            addresses.append(entry.local_address)
        else:
            bisect.insort(addresses, entry.local_address)
        self._by_address[entry.local_address] = entry

    def remove(self, entry: AllocEntry) -> None:
        """Delete a row (extended_free of a cached datum)."""
        stored = self._by_pointer.pop(entry.pointer, None)
        if stored is not entry:
            raise SmartRpcError(
                f"allocation table does not hold {entry.pointer!r}"
            )
        on_page = self._by_page[entry.page_number]
        on_page.remove(entry)
        if not on_page:
            del self._by_page[entry.page_number]
        index = bisect.bisect_left(
            self._sorted_addresses, entry.local_address
        )
        del self._sorted_addresses[index]
        del self._by_address[entry.local_address]

    def repoint(self, entry: AllocEntry, pointer: LongPointer) -> None:
        """Replace an entry's long pointer (provisional -> real address).

        The local placeholder does not move: ordinary pointers already
        swizzled into memory stay valid, only the table row changes.
        """
        if pointer in self._by_pointer:
            raise SmartRpcError(
                f"allocation table already has {pointer!r}"
            )
        if self._by_pointer.pop(entry.pointer, None) is not entry:
            raise SmartRpcError(
                f"allocation table does not hold {entry.pointer!r}"
            )
        entry.pointer = pointer
        self._by_pointer[pointer] = entry

    # -- lookups --------------------------------------------------------------

    def entry_for(self, pointer: LongPointer) -> Optional[AllocEntry]:
        """The row for a long pointer, if already swizzled here."""
        return self._by_pointer.get(pointer)

    def entry_containing(self, local_address: int) -> Optional[AllocEntry]:
        """The row whose placeholder contains a local address."""
        index = bisect.bisect_right(self._sorted_addresses, local_address)
        if index == 0:
            return None
        entry = self._by_address[self._sorted_addresses[index - 1]]
        return entry if entry.contains(local_address) else None

    def entries_overlapping(self, address: int, size: int) -> List[AllocEntry]:
        """Rows whose placeholders intersect ``[address, address+size)``.

        The bulk access path's lookup: one coalesced observer callback
        covers a whole run, and every entry the run crossed must be
        scored touched.  ``size <= 0`` degrades to the single-address
        :meth:`entry_containing` semantics.
        """
        if size <= 0:
            entry = self.entry_containing(address)
            return [entry] if entry is not None else []
        out: List[AllocEntry] = []
        index = bisect.bisect_right(self._sorted_addresses, address)
        if index:
            entry = self._by_address[self._sorted_addresses[index - 1]]
            if entry.contains(address):
                out.append(entry)
        end = address + size
        while index < len(self._sorted_addresses):
            start = self._sorted_addresses[index]
            if start >= end:
                break
            out.append(self._by_address[start])
            index += 1
        return out

    def entries_on_page(self, page_number: int) -> List[AllocEntry]:
        """All rows on one cache page."""
        return list(self._by_page.get(page_number, ()))

    def pages(self) -> List[int]:
        """All cache pages with at least one row."""
        return sorted(self._by_page)

    def __len__(self) -> int:
        return len(self._by_pointer)

    def __iter__(self):
        return iter(self._by_pointer.values())

    # -- presentation (the paper's Table 1) -----------------------------------

    def rows(self) -> List[tuple]:
        """(page, offset, long pointer) rows, sorted — Table 1's shape."""
        rows = [
            (entry.page_number, entry.offset, entry.pointer)
            for entry in self._by_pointer.values()
        ]
        rows.sort(key=lambda row: (row[0], row[1]))
        return rows

    def format_table(self) -> str:
        """Render the table like the paper's Table 1."""
        lines = ["page #  offset within the page  long pointer"]
        for page_number, offset, pointer in self.rows():
            lines.append(f"{page_number:<7} {offset:<23} {pointer!r}")
        return "\n".join(lines)
