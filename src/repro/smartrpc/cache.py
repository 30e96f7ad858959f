"""The cache area: protected page allocation, fill-on-fault, dirtiness.

This module implements the virtual-memory half of the method:

* when a long pointer is swizzled and its data is not yet local, a
  placeholder is carved out of a *protected page area*
  (:data:`~repro.memory.page.Protection.NONE`) — "the page contains no
  data at this time" (paper §3.2);
* the first access faults; the handler requests from the home space
  **every datum allocated to the faulted page** that is not yet
  resident, "because once the access protection of the page is
  released, the first access to the other data in the page can no
  longer be detected";
* a fully resident page is remapped read-only, so the first *write*
  faults once more and marks the page dirty — the coherency protocol's
  page-grain modification detection (paper §3.4); each activity
  crossing remaps dirty pages read-only again, so the next write
  faults and restamps the page with the session's epoch;
* placeholder placement follows the paper's heuristic: all data in a
  page originates from a single address space (§6 discusses this
  choice); every strategy keeps it, ``packed`` and ``isolated`` only
  change how many data share a page.

The cache area *is* the data allocation table (§3.2, Table 1): its
page dict (each :class:`CachePage` is its page's address-ordered row
list, a span listed on each of its pages) and its long-pointer dict
are the table's two indexes, and the cache files, looks up, re-keys
and drops every row itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.memory.faults import AccessViolation, FaultKind
from repro.memory.page import Protection
from repro.smartrpc import transfer
from repro.smartrpc.alloc_table import (
    AllocEntry,
    _last_at_or_before,
    alloc_entry,
)
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

SINGLE_HOME = "single_home"
ISOLATED = "isolated"
PACKED = "packed"
STRATEGIES = (SINGLE_HOME, ISOLATED, PACKED)
_FRESH = "fresh"
_REMOTE = "remote"
#: Read once per placeholder page and per fault: an enum member is a
#: descriptor lookup on the class, a module global is not.
_PROTECTED = Protection.NONE
_WRITE = FaultKind.WRITE


class CachePage(list):
    """One mapped cache page, as one object.

    The list holds the allocation table's rows on the page, in address
    order; only the cache files and drops them.  The same
    object is the page the address space maps
    (:meth:`~repro.memory.address_space.AddressSpace.map_page`:
    ``number``, ``protection``, ``data``) and the cache's bookkeeping
    for it.  A cold session maps a placeholder page per datum, so one
    object per page, not four, is what keeps the cyclic collector's
    work down, and each is built with no ``__init__`` frame, by
    :meth:`CacheManager.place_new` or (a span's) :func:`cache_page`.
    Slots are written out by hand for Python 3.9:

    * ``cache`` — the owning cache: faults and first touches route
      through it;
    * ``number`` — set by the space when it maps the page;
    * ``data`` — backed only as far as written (see
      :class:`~repro.memory.page.Page`): a protected page area
      "contains no data at this time";
    * ``version`` — write generation of the page's contents, bumped on
      each traced modification; faults record the version they observe
      so the offline sanitizer can detect stale reads (SRPC401);
    * ``stamp`` — the session epoch of the page's last write fault: the
      peers that crossed with this space since then may lack its data.
    """

    __slots__ = (
        "cache", "number", "protection", "data", "home", "bump", "closed",
        "dirty", "version", "stamp",
    )

    @property
    def complete(self) -> bool:
        """Whether every entry on the page is resident."""
        for entry in self:
            if not entry.resident:
                return False
        return True


def cache_page(cache: "CacheManager", home: str) -> CachePage:
    """A new, empty, protected page of ``cache`` holding ``home``'s data."""
    page = CachePage()
    page.cache = cache
    page.protection = _PROTECTED
    page.data = bytearray()
    page.home = home
    page.bump = page.version = page.stamp = 0
    page.closed = page.dirty = False
    return page


class CacheManager:
    """Manages one session's cache area in one address space."""

    def __init__(
        self,
        runtime: "SmartRpcRuntime",
        state: "SmartSessionState",
    ) -> None:
        self.runtime = runtime
        self.state = state
        # The placeholder strategy is a transfer-policy decision, checked
        # when the policy was built.
        self.strategy = runtime.policy.allocation_strategy
        #: The owning address space and its (fixed) page size.
        self.space = runtime.space
        self.page_size = runtime.space.page_size
        #: Page number -> :class:`CachePage`, every page of the area;
        #: each page is its own row list, kept even when emptied.
        #: Read-only to callers.
        self.pages: Dict[int, CachePage] = {}
        #: Long pointer -> its row.  Read-only to callers.
        self.rows: Dict[LongPointer, AllocEntry] = {}
        #: The row for a long pointer, if already swizzled here — the
        #: dict's own ``get``, since every swizzle of the fill path
        #: asks.
        self.entry_for = self.rows.get
        # Open pages accepting new placeholders, keyed by
        # (allocation class, home).
        self._open_pages: Dict[Tuple[str, str], CachePage] = {}
        self.dirty_pages: Set[int] = set()
        # Dirty pages written since the last activity crossing: mapped
        # READ_WRITE until the crossing re-protects them.
        self._written: Set[int] = set()
        #: Shipped entries the program has not yet touched.  While it is
        #: non-zero the access observer
        #: (:meth:`SmartRpcRuntime._note_program_access`) scores program
        #: accesses to this cache's pages, and settles each page as soon
        #: as that page holds no such entry: ``Mem``
        #: stops reporting it until the next generation bump — the
        #: steady-state fast path.  Once it is zero every page settles
        #: at its next access without a scoring pass.
        self.untouched_shipped = 0
        #: Seals the open pages after one datum's pointers were
        #: swizzled; a batch loop reads it once per batch and calls it
        #: per datum.  The paper's Figure 2 shows pointers arriving
        #: *together* sharing a protected page; the default strategies
        #: group per arriving datum — the frontier children swizzled
        #: out of one transferred value share placeholder pages, and
        #: the next value's children start fresh ones.  The grouping is
        #: a locality heuristic: data co-allocated on a page is data
        #: discovered together, so a fault on the page requests
        #: siblings that the program is likely to touch together.  It
        #: is also what makes the closure-size-0 configuration degrade
        #: toward the fully lazy behaviour (a fault fetches one sibling
        #: group, not an accidentally-batched whole BFS level).
        #:
        #: ``None`` under ``packed``, which packs a whole transfer
        #: batch's frontier onto shared pages instead — fewer, fuller
        #: pages at the price of coarser fills (the working-set-versus-
        #: communication-count tradeoff of the paper's §6) — and seals
        #: only at :meth:`finish_batch`.
        self.datum_seal: Optional[Callable[[], None]] = (
            None if self.strategy == PACKED else self._open_pages.clear
        )

    # -- the table's lookups ---------------------------------------------------

    def entry_containing(self, local_address: int) -> Optional[AllocEntry]:
        """The row whose placeholder contains a local address."""
        rows = self.pages.get(local_address // self.page_size)
        if rows:
            index = _last_at_or_before(rows, local_address)
            if index >= 0:
                entry = rows[index]
                if local_address < entry.local_address + entry.size:
                    return entry
        return None

    def footprint(self) -> Tuple[int, int]:
        """(mapped protected pages, allocation-table rows) still held.

        The fault-tolerance layer's leak metric: after a clean close,
        an abort or a reap, both counts must be zero.
        """
        return len(self.pages), len(self.rows)

    # -- placeholder allocation -----------------------------------------------

    def ensure_entry(self, pointer: LongPointer) -> AllocEntry:
        """The table row for ``pointer``, allocating a placeholder if new.

        This is the allocation step of swizzling: "when the callee
        receives a long pointer from the caller, the callee allocates
        for the referenced data a protected page area."
        """
        entry = self.entry_for(pointer)
        if entry is not None:
            return entry
        # Size and alignment come precomputed with the type's wire
        # plan; the id resolves here if this space has not met it yet.
        plan = self.runtime.wire_plan(pointer.type_id)
        return self.place_new(pointer, plan.size, min(plan.alignment, 8))

    def allocate_fresh(self, pointer: LongPointer, size: int) -> AllocEntry:
        """A resident, writable entry for ``extended_malloc`` data.

        Freshly allocated remote data has no original contents to
        fetch, so its page is mapped read-write and marked dirty from
        birth: the new contents must reach the home space through the
        coherency protocol.
        """
        entry = self.place(pointer, size, 8, _FRESH, True)
        for number in self._entry_pages(entry):
            page = self.pages[number]
            page.dirty = True
            page.stamp = self.state.epoch
            self.dirty_pages.add(number)
            self._written.add(number)
            self.space.protect(number, Protection.READ_WRITE)
        return entry

    def place(
        self,
        pointer: LongPointer,
        size: int,
        alignment: int,
        allocation_class: str = _REMOTE,
        resident: bool = False,
    ) -> AllocEntry:
        """The new row for ``pointer``, which the table must not hold
        yet: :meth:`place_new` after the duplicate-pointer check."""
        if pointer in self.rows:
            raise SmartRpcError(f"allocation table already has {pointer!r}")
        return self.place_new(
            pointer, size, alignment, allocation_class, resident
        )

    def place_new(
        self,
        pointer: LongPointer,
        size: int,
        alignment: int,
        allocation_class: str = _REMOTE,
        resident: bool = False,
    ) -> AllocEntry:
        """The new row for ``pointer``, on an open page or a fresh one.

        The one allocator, in one step, for a caller that has just
        missed ``pointer`` in the table (a batch's swizzle miss,
        :meth:`ensure_entry`), so the table is not probed again; other
        callers go through :meth:`place`.  The size and alignment are
        the target type's (alignment at most 8).  It builds the row
        and, when no open page takes it, a fresh page, which the space
        maps and numbers without a generation bump (see
        ``AddressSpace.map_page``) — both written out here, as
        :func:`alloc_entry` and :func:`cache_page` build them, so a
        miss costs this frame and, for a fresh page, ``map_page``'s.
        It files the row in the table's two indexes: a placeholder
        lands past every row of its page, so the row list is appended
        to.
        """
        page_size = self.page_size
        if size > page_size:
            return self._place_span(pointer, size, resident)
        home = pointer[0]
        key = page = None
        if self.strategy != ISOLATED:
            # ISOLATED is the fully lazy baseline: one datum per page,
            # so every first access to every datum faults individually
            # (a callback per dereferenced pointer, as in the paper's
            # §2 baseline).
            key = (allocation_class, home)
            open_pages = self._open_pages
            if key in open_pages:
                page = open_pages[key]
                offset = (page.bump + alignment - 1) & -alignment
                if page.closed or offset + size > page_size:
                    page = None
        if page is None:
            page = CachePage()
            page.cache = self
            page.protection = _PROTECTED
            page.data = bytearray()
            page.home = home
            page.bump = page.version = page.stamp = 0
            page.dirty = False
            number = self.space.map_page(page)
            self.pages[number] = page
            if key is None:
                page.closed = True
            else:
                page.closed = False
                open_pages[key] = page
            offset = 0
        else:
            number = page.number
        entry = AllocEntry()
        entry.pointer = pointer
        entry.local_address = number * page_size + offset
        entry.size = size
        entry.page_number = number
        entry.offset = offset
        entry.resident = resident
        entry.shipped = entry.prefetched = entry.touched = False
        page.bump = offset + size
        page.append(entry)
        self.rows[pointer] = entry
        return entry

    def _place_span(
        self, pointer: LongPointer, size: int, resident: bool
    ) -> AllocEntry:
        """A row on fresh pages of its own, listed on each of them."""
        spanned = []
        for _ in range(-(-size // self.page_size)):
            page = cache_page(self, pointer.space_id)
            page.closed = True
            self.pages[self.space.map_page(page)] = page
            spanned.append(page)
        first = spanned[0].number  # map_page numbers consecutively
        entry = alloc_entry(
            pointer, first * self.page_size, size, first, 0, resident
        )
        for page in spanned:
            page.append(entry)
        self.rows[pointer] = entry
        if resident:
            self._maybe_release(first)
        return entry

    def _entry_pages(self, entry: AllocEntry) -> range:
        """Every cache page an entry occupies (spans cover several)."""
        last = (entry.local_address + entry.size - 1) // self.page_size
        return range(entry.page_number, last + 1)

    def incomplete_pages(self) -> Set[int]:
        """Pages still holding non-resident placeholders.

        Each is a future demand round trip unless the fetch pipeline
        completes it first — the quantity behind the transfer ledger's
        ``round_trips_saved``.
        """
        return {
            number
            for number, page in self.pages.items()
            if page and not page.complete
        }

    def finish_batch(self) -> None:
        """Seal open pages at the end of one whole transfer batch."""
        self._open_pages.clear()

    # -- fault handling -------------------------------------------------------

    def handle_fault(self, fault: AccessViolation) -> None:
        """The user-level access-violation handler for cache pages."""
        page = self.pages[fault.page_number]
        protection = page.protection
        runtime = self.runtime
        write = fault.kind is _WRITE
        if runtime.stats.tracing:
            kind = "write" if write else "read"
            runtime.trace_event(
                "fault",
                f"{runtime.site_id}: page {fault.page_number} "
                f"{kind} fault (session {self.state.session_id})",
                session=self.state.session_id,
                space=runtime.site_id,
                page=fault.page_number,
                kind=kind,
                version=page.version,
            )
        if protection is _PROTECTED:
            self._fill(page)
        if write:
            self.mark_dirty_page(page)
        if runtime.models_time:
            runtime.clock.advance(runtime.cost_model.page_fault)

    def _fill(self, page: CachePage) -> None:
        """Transfer every non-resident datum allocated to the page.

        "All of the other data allocated to the page must be
        transferred at this time" — from the page's home space: under
        the single-home heuristic that is one request message.

        With both pipeline switches off that is the whole fill: the
        page's missing data, demanded roots only, in one
        :func:`~repro.smartrpc.transfer.request_data`.  Under the
        ``pipelined`` policy the session's
        :class:`~repro.smartrpc.pipeline.FetchPipeline` (coalescing,
        piggyback, prefetch) makes the requests instead.
        """
        state = self.state
        pipeline = state.pipeline
        if pipeline.active:
            pipeline.fill_page(self, page)
        else:
            # Closed first: the arriving data's own pointer fields
            # swizzle into new placeholders, which must not land on the
            # page being filled.
            page.closed = True
            pointers = []
            for entry in page:
                if not entry.resident:
                    pointers.append(entry.pointer)
            if pointers:
                transfer.request_data(self.runtime, state, page.home, pointers)
        for entry in page:
            if not entry.resident:
                missing = [e.pointer for e in page if not e.resident]
                raise SmartRpcError(
                    f"home space failed to supply {missing!r} for page "
                    f"{page.number}"
                )
        self.runtime.stats.pages_filled += 1

    # -- residency and dirtiness ----------------------------------------------

    def mark_resident(
        self, entry: AllocEntry, held: Optional[List[int]] = None
    ) -> None:
        """Record arrival of an entry's data; release complete pages.

        A transfer batch completes up to one page per item; instead of
        one ``protect`` and one generation bump each, it passes
        ``held``, collects the numbers of the pages to remap READ there
        and remaps them all in one ``protect_pages`` pass, as
        :meth:`invalidate` unmaps a whole cache area in one.
        """
        if entry.resident:
            return
        entry.resident = True
        for number in self._entry_pages(entry):
            self._maybe_release(number, held)

    def _maybe_release(
        self, page_number: int, held: Optional[List[int]] = None
    ) -> None:
        page = self.pages[page_number]
        if not page.complete:
            return
        page.closed = True
        if page.dirty:
            return
        if held is not None:
            held.append(page_number)
        else:
            self.space.protect(page_number, Protection.READ)

    def mark_dirty_page(self, page: CachePage) -> None:
        """A write fault on ``page``: stamp it and remap it writable.

        The first write joins the page to the modified data set.  An
        activity crossing re-protects the page READ
        (:meth:`protect_written`), so the first write after it faults
        again and restamps the page with the current epoch: the page
        then ships again to every peer that has not seen that epoch.
        """
        page_number = page.number
        if page.protection is Protection.READ_WRITE:
            return
        if not page.complete:
            raise SmartRpcError(
                f"page {page_number} written before it was filled"
            )
        page.dirty = True
        page.closed = True
        page.version += 1
        page.stamp = self.state.epoch
        self.dirty_pages.add(page_number)
        self._written.add(page_number)
        self.space.protect_pages((page_number,), Protection.READ_WRITE)
        runtime = self.runtime
        runtime.stats.write_faults += 1
        if runtime.stats.tracing:
            runtime.trace_event(
                "write",
                f"{runtime.site_id}: page {page_number} marked dirty "
                f"(session {self.state.session_id})",
                session=self.state.session_id,
                space=runtime.site_id,
                page=page_number,
                home=page.home,
                version=page.version,
            )

    def protect_written(self) -> None:
        """Remap READ, in one pass, every page written since the last
        crossing; the pages stay in the modified data set."""
        if self._written:
            self.space.protect_pages(self._written, Protection.READ)
            self._written.clear()

    def dirty_entries(self) -> Dict[AllocEntry, int]:
        """Entries of the modified data set, each with its page stamp.

        Deduplicated across spans, where an entry takes the latest
        stamp of its pages; in page order.
        """
        out: Dict[AllocEntry, int] = {}
        for page_number in sorted(self.dirty_pages):
            page = self.pages[page_number]
            stamp = page.stamp
            for entry in page:
                if out.get(entry, -1) < stamp:
                    out[entry] = stamp
        return out

    # -- extended_free support ------------------------------------------------

    def release_entry(self, entry: AllocEntry) -> None:
        """Drop a cache entry (its placeholder bytes are abandoned).

        The cache area is session-scoped, so placeholder space is not
        recycled — it all disappears at invalidation.  A row still
        missing was what kept its page protected: with it gone the page
        may be complete, and then it is released as if the row had
        arrived — else a fault on it would refetch nothing, forever.
        """
        if self.rows.get(entry.pointer) is not entry:
            raise SmartRpcError(
                f"allocation table does not hold {entry.pointer!r}"
            )
        del self.rows[entry.pointer]
        if entry.shipped and not entry.touched:
            self.untouched_shipped -= 1
        for number in self._entry_pages(entry):
            page = self.pages[number]
            page.remove(entry)
            if page and not entry.resident:
                self._maybe_release(number)

    def repoint(self, entry: AllocEntry, pointer: LongPointer) -> None:
        """Replace an entry's long pointer (provisional -> real address).

        The local placeholder does not move: ordinary pointers already
        swizzled into memory stay valid, only the table row changes.
        """
        rows = self.rows
        if pointer in rows:
            raise SmartRpcError(f"allocation table already has {pointer!r}")
        if rows.pop(entry.pointer, None) is not entry:
            raise SmartRpcError(
                f"allocation table does not hold {entry.pointer!r}"
            )
        entry.pointer = pointer
        rows[pointer] = entry

    # -- teardown -------------------------------------------------------------

    def invalidate(self) -> None:
        """Unmap the whole cache area and clear the table."""
        self.space.unmap_pages(self.pages)
        self.pages.clear()
        self._open_pages.clear()
        self.dirty_pages.clear()
        self._written.clear()
        self.untouched_shipped = 0
        self.rows = {}
        self.entry_for = self.rows.get
        self.runtime.stats.invalidations += 1
