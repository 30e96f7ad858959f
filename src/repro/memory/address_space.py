"""Paged address spaces.

An :class:`AddressSpace` is a sparse collection of pages addressed by
integer byte addresses starting at :data:`REGION_BASE` (address 0 is
kept unmapped so that 0 can serve as the NULL pointer, as in C).

Two access planes exist, mirroring user/kernel mode:

* :meth:`read` / :meth:`write` check page protection and raise
  :class:`~repro.memory.faults.AccessViolation` — programs go through
  these (via :class:`~repro.memory.accessor.Mem`);
* :meth:`read_raw` / :meth:`write_raw` bypass protection — the runtime
  uses these to fill protected cache pages, the way the original
  runtime wrote through a second unprotected mapping / kernel copy.

A page's buffer backs it only as far as it has been written
(:class:`~repro.memory.page.Page`); both planes read the rest as
zeros, and a write past the backed bytes grows the buffer.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.memory.faults import AccessViolation, FaultKind, SegmentationError
from repro.memory.page import PAGE_SIZE_DEFAULT, Page, Protection

REGION_BASE = PAGE_SIZE_DEFAULT  # keep page 0 unmapped: NULL stays invalid

FaultHandler = Callable[[AccessViolation], None]


class AddressSpace:
    """One process's address space on one site.

    Regions are allocated page-grain through :meth:`map_region`; within a
    region, finer allocation is the job of :class:`repro.memory.heap.Heap`
    or of the smart-RPC cache manager.
    """

    def __init__(
        self,
        space_id: str,
        page_size: int = PAGE_SIZE_DEFAULT,
    ) -> None:
        if page_size <= 0 or page_size % 8 != 0:
            raise ValueError(f"bad page size {page_size!r}")
        self.space_id = space_id
        self.page_size = page_size
        self._pages: Dict[int, Page] = {}
        self._first_page = max(1, REGION_BASE // page_size)
        self._next_page = self._first_page
        self._fault_handler: Optional[FaultHandler] = None
        #: Mapping/protection generation.  Bumped whenever a page goes
        #: away (:meth:`unmap_pages`), changes protection
        #: (:meth:`protect_pages`) or has its buffer rebound, and by
        #: :meth:`map_region`; :meth:`map_page` needs no bump (see
        #: there).  :class:`repro.memory.accessor.Mem` compares it to
        #: discard stale page access tokens, so neither a
        #: coherency-driven protection flip nor a rebound buffer is
        #: missed by the token fast path.  Read-only to callers.
        self.generation = 0
        self._mapped_cache: Optional[List[int]] = None
        #: ``page_if_mapped(number)``: the page, or ``None`` when
        #: unmapped (no fault raised).  The page dict's own ``get``:
        #: the access plane and the fault router ask on every miss.
        self.page_if_mapped = self._pages.get

    # -- mapping -----------------------------------------------------------

    def map_region(
        self,
        num_pages: int,
        protection: Protection = Protection.READ_WRITE,
    ) -> int:
        """Map ``num_pages`` fresh zeroed pages; return the base address."""
        if num_pages <= 0:
            raise ValueError(f"bad region size {num_pages!r} pages")
        base_page = self._next_page
        for offset in range(num_pages):
            number = base_page + offset
            self._pages[number] = Page(number, self.page_size, protection)
        self._next_page += num_pages
        self.generation += 1
        self._mapped_cache = None
        return base_page * self.page_size

    def map_page(self, page) -> int:
        """Map one caller-built page at the next free page number.

        ``page`` only has to look like a :class:`Page` to this space:
        ``protection`` and ``data`` are read and rebound here, and its
        ``number`` is assigned here and returned.  A caller that keeps
        its own bookkeeping per page (the smart-RPC cache) so maps that
        bookkeeping itself, instead of a second object.

        No generation bump: a :class:`~repro.memory.accessor.Mem` token
        is only ever taken for a mapped page, and a number that was
        mapped before has been unmapped since, which bumped.  So no
        token can name the fresh number.
        """
        number = page.number = self._next_page
        self._pages[number] = page
        self._next_page = number + 1
        self._mapped_cache = None
        return number

    def unmap_page(self, page_number: int) -> None:
        """Remove one page from the space."""
        self.unmap_pages((page_number,))

    def unmap_pages(self, page_numbers: Iterable[int]) -> None:
        """Remove pages from the space (cache invalidation).

        One pass and one generation bump however many pages go.  Page
        numbers above every page still mapped are handed out again by
        :meth:`map_region` and :meth:`map_page`, so a space that maps and
        drops a cache area per session does not creep towards the top
        of a 32-bit address space; a stale
        :class:`~repro.memory.accessor.Mem` token for a reused number
        cannot survive, because this bump drops every token first.
        """
        pages = self._pages
        try:
            for number in page_numbers:
                if number not in pages:
                    raise SegmentationError(
                        self.space_id, number * self.page_size, FaultKind.READ
                    )
                del pages[number]
        finally:
            top = self._next_page
            while top > self._first_page and top - 1 not in pages:
                top -= 1
            self._next_page = top
            self.generation += 1
            self._mapped_cache = None

    @property
    def high_water_page(self) -> int:
        """The next page number :meth:`map_region` would hand out."""
        return self._next_page

    def is_mapped(self, address: int) -> bool:
        """Whether ``address`` falls on a mapped page."""
        return (address // self.page_size) in self._pages

    def page_number(self, address: int) -> int:
        """The page an address belongs to."""
        return address // self.page_size

    def page(self, page_number: int) -> Page:
        """Look up a mapped page."""
        try:
            return self._pages[page_number]
        except KeyError:
            raise SegmentationError(
                self.space_id, page_number * self.page_size, FaultKind.READ
            ) from None

    @property
    def mapped_pages(self) -> List[int]:
        """Sorted numbers of all mapped pages.

        The sorted list is cached and invalidated on map/unmap, so
        per-sweep callers (``validate.py``, write-back) do not re-sort
        the whole page dict on every call.  A fresh copy is returned
        each time; callers may mutate it freely.
        """
        cached = self._mapped_cache
        if cached is None:
            cached = self._mapped_cache = sorted(self._pages)
        return list(cached)

    # -- protection (the mprotect interface) --------------------------------

    def protect(self, page_number: int, protection: Protection) -> None:
        """Change one page's protection."""
        self.protect_pages((page_number,), protection)

    def protect_pages(
        self, page_numbers: Iterable[int], protection: Protection
    ) -> None:
        """Change several pages' protection in one pass.

        One generation bump however many pages change, as in
        :meth:`unmap_pages`.  An unmapped number raises
        :class:`~repro.memory.faults.SegmentationError`; the pages
        before it keep their new protection, and the bump still lands.
        """
        pages = self._pages
        try:
            for number in page_numbers:
                page = pages.get(number)
                if page is None:
                    raise SegmentationError(
                        self.space_id, number * self.page_size, FaultKind.READ
                    )
                page.protection = protection
        finally:
            self.generation += 1

    def protection_of(self, page_number: int) -> Protection:
        """Current protection of one page."""
        return self.page(page_number).protection

    def set_fault_handler(self, handler: Optional[FaultHandler]) -> None:
        """Register the user-level access-violation handler.

        The handler is invoked by :class:`repro.memory.accessor.Mem`
        (playing the role of the kernel's signal delivery), not by the
        address space itself.
        """
        self._fault_handler = handler

    @property
    def fault_handler(self) -> Optional[FaultHandler]:
        """The registered handler, if any."""
        return self._fault_handler

    # -- checked access (user mode) -----------------------------------------

    def read(self, address: int, size: int) -> bytes:
        """Protection-checked load of ``size`` bytes."""
        self._check(address, size, FaultKind.READ)
        return self.read_raw(address, size)

    def write(self, address: int, data: bytes) -> None:
        """Protection-checked store."""
        self._check(address, len(data), FaultKind.WRITE)
        self.write_raw(address, data)

    def _check(self, address: int, size: int, kind: FaultKind) -> None:
        if size < 0:
            raise ValueError(f"negative access size {size!r}")
        first = address // self.page_size
        last = (address + max(size, 1) - 1) // self.page_size
        for number in range(first, last + 1):
            page = self._pages.get(number)
            if page is None:
                raise SegmentationError(self.space_id, address, kind)
            allowed = (
                page.protection.readable
                if kind is FaultKind.READ
                else page.protection.writable
            )
            if not allowed:
                fault_address = max(address, number * self.page_size)
                raise AccessViolation(
                    self.space_id, fault_address, kind, number
                )

    # -- raw access (kernel mode) --------------------------------------------

    def read_raw(self, address: int, size: int) -> bytes:
        """Load bytes ignoring protection (runtime/kernel plane)."""
        page_size = self.page_size
        # Fast path: the access stays within one page.
        page = self._pages.get(address // page_size)
        if page is not None:
            offset = address % page_size
            if offset + size <= page_size:
                return _backed(page, offset, size)
        out = bytearray()
        cursor = address
        remaining = size
        while remaining > 0:
            page = self.page(cursor // page_size)
            offset = cursor % page_size
            chunk = min(remaining, page_size - offset)
            out += _backed(page, offset, chunk)
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_raw(self, address: int, data: bytes) -> None:
        """Store bytes ignoring protection (runtime/kernel plane)."""
        page_size = self.page_size
        # Fast path: the access stays within one page.
        page = self._pages.get(address // page_size)
        if page is not None:
            offset = address % page_size
            end = offset + len(data)
            if end <= page_size:
                buffer = page.data
                if end > len(buffer):
                    buffer = self._grow(page, end)
                buffer[offset:end] = data
                return
        cursor = address
        view = memoryview(data)
        while view.nbytes > 0:
            page = self.page(cursor // page_size)
            offset = cursor % page_size
            end = min(page_size, offset + view.nbytes)
            buffer = page.data
            if end > len(buffer):
                buffer = self._grow(page, end)
            buffer[offset:end] = view[: end - offset]
            cursor += end - offset
            view = view[end - offset :]

    def unpack_raw(self, codec: struct.Struct, address: int) -> tuple:
        """``codec.unpack`` of the bytes at ``address`` (raw plane).

        Reads straight out of the page buffer when the span lies within
        the page's backed bytes — no intermediate ``bytes``.
        """
        page = self._pages.get(address // self.page_size)
        if page is not None:
            try:
                return codec.unpack_from(page.data, address % self.page_size)
            except struct.error:
                pass  # past the backed bytes, or across a page boundary
        return codec.unpack(self.read_raw(address, codec.size))

    def pack_raw(
        self, codec: struct.Struct, address: int, values: Sequence
    ) -> None:
        """``codec.pack`` of ``values`` into the bytes at ``address``."""
        page = self._pages.get(address // self.page_size)
        if page is not None:
            offset = address % self.page_size
            end = offset + codec.size
            if end <= self.page_size:
                buffer = page.data
                if end > len(buffer):
                    buffer = self._grow(page, end)
                codec.pack_into(buffer, offset, *values)
                return
        self.write_raw(address, codec.pack(*values))

    def _grow(self, page: Page, end: int) -> bytearray:
        """Back ``page`` up to byte ``end``: the one rebinding of a buffer.

        A :class:`~repro.memory.accessor.Mem` token holds the old
        buffer, so the generation moves and every token is dropped
        before it could serve a byte the new buffer no longer shares.
        """
        grown = bytearray(end)
        if page.data:  # a fresh page's first write has nothing to copy
            grown[: len(page.data)] = page.data
        page.data = grown
        self.generation += 1
        return grown

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AddressSpace({self.space_id!r}, {len(self._pages)} pages "
            f"of {self.page_size}B)"
        )


def _backed(page: Page, offset: int, size: int) -> bytes:
    """``size`` bytes of ``page`` at ``offset``; zeros past its buffer."""
    chunk = bytes(page.data[offset : offset + size])
    if len(chunk) < size:
        chunk += bytes(size - len(chunk))
    return chunk
