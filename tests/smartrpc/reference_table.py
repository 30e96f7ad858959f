"""The standalone data allocation table, kept as an oracle.

This is how the paper's Table 1 was kept before the cache area became
the table (``repro.smartrpc.cache``): a class of its own with a
long-pointer dict and one address-ordered row list per page, a general
``add`` that files a row of any address (spans included) and the three
lookups.  Production code no longer contains it; the differential
property in ``tests/properties/test_table_props.py`` drives random
placements through a cache, feeds the same rows to this table, and
holds the two to the same lookups, page lists and error texts.  Its
row search is its own copy, so a fault in the cache's search cannot
hide in both.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.memory.page import PAGE_SIZE_DEFAULT
from repro.smartrpc.alloc_table import AllocEntry
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer


class DataAllocationTable:
    """The per-space, per-session data allocation table."""

    def __init__(
        self,
        page_size: int = PAGE_SIZE_DEFAULT,
        pages: Optional[Dict[int, List[AllocEntry]]] = None,
        rows: Optional[Dict[LongPointer, AllocEntry]] = None,
    ) -> None:
        self.page_size = page_size
        #: Long pointer -> its row.  A cache passes its own dict, as it
        #: passes its page dict, and files a placeholder row in both
        #: itself when the row lands past every row of its page (see
        #: :meth:`~repro.smartrpc.cache.CacheManager.place`).
        self._by_pointer: Dict[LongPointer, AllocEntry] = (
            {} if rows is None else rows
        )
        #: Page number -> the rows on that page in address order.  A row
        #: spanning several pages is listed on each.  Lists stay even
        #: when emptied: a page's bookkeeping may be its list.  A cache
        #: passes its own page dict, and files each page there before
        #: any row lands on it.
        self._by_page: Dict[int, List[AllocEntry]] = (
            {} if pages is None else pages
        )
        #: The row for a long pointer, if already swizzled here — the
        #: dict's own ``get``, since every swizzle of the fill path
        #: asks.
        self.entry_for = self._by_pointer.get

    def page_rows(self, page_number: int) -> List[AllocEntry]:
        """The live, address-ordered row list of one page.

        Created empty on first use; the table mutates it in place from
        then on, so a caller may keep it as its view of the page.
        """
        rows = self._by_page.get(page_number)
        if rows is None:
            rows = self._by_page[page_number] = []
        return rows

    def _pages_of(self, entry: AllocEntry) -> range:
        last = (entry.local_address + entry.size - 1) // self.page_size
        return range(entry.page_number, max(entry.page_number, last) + 1)

    # -- mutation -----------------------------------------------------------

    def add(self, entry: AllocEntry) -> None:
        """Insert a new row; the long pointer and local address must be new."""
        pointer = entry.pointer
        if pointer in self._by_pointer:
            raise SmartRpcError(f"allocation table already has {pointer!r}")
        address = entry.local_address
        number = entry.page_number
        rows = self._by_page.get(number)
        if rows is None:
            rows = self._by_page[number] = []
        # Placeholders are carved out of fresh pages in bump order, so
        # a row mostly lands past every row already on its page.
        if not rows or rows[-1].local_address < address:
            rows.append(entry)
        else:
            index = _last_at_or_before(rows, address)
            if index >= 0 and rows[index].local_address == address:
                raise SmartRpcError(
                    f"allocation table already maps local address "
                    f"{address:#x}"
                )
            rows.insert(index + 1, entry)
        # A row spilling onto later pages starts before any row there.
        last = (address + entry.size - 1) // self.page_size
        while number < last:
            number += 1
            self.page_rows(number).insert(0, entry)
        self._by_pointer[pointer] = entry

    def remove(self, entry: AllocEntry) -> None:
        """Delete a row (extended_free of a cached datum)."""
        if self._by_pointer.get(entry.pointer) is not entry:
            raise SmartRpcError(
                f"allocation table does not hold {entry.pointer!r}"
            )
        del self._by_pointer[entry.pointer]
        for number in self._pages_of(entry):
            self._by_page[number].remove(entry)

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

    def entry_containing(self, local_address: int) -> Optional[AllocEntry]:
        """The row whose placeholder contains a local address."""
        rows = self._by_page.get(local_address // self.page_size)
        if rows:
            index = _last_at_or_before(rows, local_address)
            if index >= 0:
                entry = rows[index]
                if local_address < entry.local_address + entry.size:
                    return entry
        return None

    def entries_on_page(self, page_number: int) -> List[AllocEntry]:
        """All rows on one cache page."""
        return list(self._by_page.get(page_number, ()))

    def pages(self) -> List[int]:
        """All cache pages with at least one row."""
        return sorted(number for number, rows in self._by_page.items() if rows)

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
