"""The rows of the data allocation table (paper §3.2, Table 1).

Per address space and session, the runtime "maintains a data allocation
table that records what data should be transferred from remote address
spaces.  The entries of the table are the page number, the offset
within the page, and a long pointer."

The table itself is the session's cache area
(:class:`~repro.smartrpc.cache.CacheManager`): its long-pointer dict
``rows`` answers "has this remote datum already been swizzled here?"
(the caching effect), and its page dict ``pages`` — each
:class:`~repro.smartrpc.cache.CachePage` is its page's address-ordered
row list — answers "which data are allocated to the faulted page?" and,
through :func:`_last_at_or_before`, unswizzles a local address back to
its long pointer.  This module holds what a row is.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.smartrpc.long_pointer import LongPointer


class AllocEntry:
    """One row of the data allocation table.

    Identity-hashed: two rows are the same row only if they are the
    same object, which lets sets of entries (the relayed
    modified-data-set) survive provisional-pointer repointing.  Slots
    written out by hand (``dataclass(slots=True)`` needs Python 3.10):
    a cold session holds one row per placeholder, each built by
    :func:`alloc_entry` — no ``__init__`` frame per row.

    Beside the paper's three columns a row carries its local size and
    residency, and the shipped-vs-touched accounting (the adaptive
    policy's signal): ``shipped`` marks data that arrived on the
    fault-driven fill path, ``prefetched`` the subset shipped beyond
    the demanded roots, ``touched`` whether the program ever accessed
    it.
    """

    __slots__ = (
        "pointer", "local_address", "size", "page_number", "offset",
        "resident", "shipped", "prefetched", "touched",
    )

    @property
    def end(self) -> int:
        """One past the entry's last local byte."""
        return self.local_address + self.size

    def contains(self, address: int) -> bool:
        """Whether a local address falls inside this entry."""
        return self.local_address <= address < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocEntry({self.pointer!r} at {self.local_address:#x}, "
            f"{self.size} B{', resident' if self.resident else ''})"
        )


def alloc_entry(
    pointer: LongPointer,
    local_address: int,
    size: int,
    page_number: int,
    offset: int,
    resident: bool = False,
) -> AllocEntry:
    """A new table row, not yet shipped or touched."""
    entry = AllocEntry()
    entry.pointer = pointer
    entry.local_address = local_address
    entry.size = size
    entry.page_number = page_number
    entry.offset = offset
    entry.resident = resident
    entry.shipped = entry.prefetched = entry.touched = False
    return entry


def table_rows(entries: Iterable[AllocEntry]) -> List[tuple]:
    """(page, offset, long pointer) rows, sorted — Table 1's shape."""
    rows = [
        (entry.page_number, entry.offset, entry.pointer) for entry in entries
    ]
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _last_at_or_before(rows: List[AllocEntry], address: int) -> int:
    """Index of the last of ``rows`` (non-empty) starting at or before
    ``address``, or -1.

    ``bisect`` takes no ``key`` before Python 3.10, and a page holds few
    rows, so the search is written out.  Lookups mostly land on or past
    a page's last row (most pages hold one), so that is tried first.
    """
    high = len(rows) - 1
    if rows[high].local_address <= address:
        return high
    low = 0
    while low < high:
        middle = (low + high) // 2
        if rows[middle].local_address <= address:
            low = middle + 1
        else:
            high = middle
    return low - 1
