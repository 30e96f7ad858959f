"""The fault-coalescing fetch pipeline (demand batching + prefetch).

One :class:`FetchPipeline` lives on each smart session and owns the
fault-driven fill path.  With every pipeline knob at zero (the
``paper`` / ``lazy`` presets) it is a byte-identical pass-through to
the classic one-request-per-home fill of
:meth:`repro.smartrpc.cache.CacheManager._fill`.  The ``pipelined``
policy preset turns on three independent mechanisms governed by the
:class:`~repro.smartrpc.policy.TransferPolicy` hooks:

* **coalescing** (``batch_window``) — a demand request carries, beyond
  the faulted page's pointers, up to ``batch_window`` other
  non-resident same-home table entries (allocation-table discovery
  order).  The home walks the closure from all of them, so one round
  trip fills several placeholder pages.
* **duplicate suppression / piggyback** (the pending table) — an
  asynchronous fetch already in flight for a page absorbs a later
  fault on that page instead of issuing a second exchange; the fault
  simply joins the outstanding reply.  No page is ever covered by two
  in-flight fetches.
* **async prefetch** (``max_inflight`` × ``prefetch_depth``) — after a
  fill, the pipeline issues up to ``max_inflight`` asynchronous
  requests for frontier entries with ``prefetch_depth`` times the
  policy's closure budget, overlapping the exchange with ground-thread
  execution.  On the simulated transport the overlap is modelled with
  :meth:`~repro.simnet.clock.SimClock.mark` /
  :meth:`~repro.simnet.clock.SimClock.rewind` /
  :meth:`~repro.simnet.clock.SimClock.join`; on a real transport the
  exchange runs on an executor thread and the fault blocks on its
  future.

Prefetched replies are held *unapplied* in the pending table until a
fault absorbs them, and the table is discarded on every activity
transfer (the only instants another space can run and mutate home
data), so results and final heap state are identical with the pipeline
on or off — the property suite in
``tests/properties/test_pipeline_equivalence.py`` checks exactly that.

Every issue/absorb is recorded as a ``data-batch`` trace event for the
offline SRPC310 conformance rule, and the wins feed the
:class:`~repro.simnet.stats.TransferLedger` counters
``round_trips_saved`` / ``piggyback_hits``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.simnet.message import MessageKind
from repro.smartrpc import transfer
from repro.smartrpc.errors import SessionAbortedError
from repro.smartrpc.long_pointer import LongPointer
from repro.transport.base import TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future, ThreadPoolExecutor
    from repro.smartrpc.cache import CacheManager, PageState
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState


class PendingFetch:
    """One in-flight asynchronous data exchange."""

    __slots__ = (
        "fetch_id",
        "home",
        "pointers",
        "pages",
        "budget",
        "order",
        "issued_at",
        "reply",
        "ready_at",
        "future",
    )

    def __init__(
        self,
        fetch_id: int,
        home: str,
        pointers: List[LongPointer],
        pages: Set[int],
        budget: int,
        order: str,
        issued_at: float,
    ) -> None:
        self.fetch_id = fetch_id
        self.home = home
        self.pointers = pointers
        self.pages = pages
        self.budget = budget
        self.order = order
        self.issued_at = issued_at
        self.reply: Optional[bytes] = None
        self.ready_at = 0.0
        self.future: Optional["Future"] = None


class FetchPipeline:
    """Per-session data-plane scheduler for the fill-on-fault path."""

    def __init__(
        self, runtime: "SmartRpcRuntime", state: "SmartSessionState"
    ) -> None:
        self.runtime = runtime
        self.state = state
        self._pending: List[PendingFetch] = []
        self._next_fetch_id = 0
        self._executor: Optional["ThreadPoolExecutor"] = None

    # -- configuration ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any pipeline mechanism is enabled by the policy."""
        policy = self.state.policy
        return (
            policy.batch_window > 0
            or policy.max_inflight > 0
            or policy.prefetch_depth > 0
        )

    @property
    def _overlap_simulated(self) -> bool:
        # The simulated clock can rewind, so the exchange runs inline
        # and is re-timed; a wall clock cannot, so the exchange runs on
        # a real thread instead.
        return hasattr(self.runtime.clock, "rewind")

    # -- the fill path ---------------------------------------------------------

    def fill_page(self, cache: "CacheManager", page: "PageState") -> None:
        """Make every datum allocated to ``page`` resident.

        The page is closed to further placeholder allocation first: the
        arriving data's own pointer fields swizzle into *new*
        placeholders, and letting those land on the page being filled
        would keep it incomplete forever.
        """
        page.closed = True
        if not self.active:
            # Pass-through: exactly the classic fill — one request per
            # home space, demanded roots only, nothing asynchronous.
            wanted = self._group_by_home(page.entries)
            for home, pointers in wanted.items():
                self.runtime.request_data(self.state, home, pointers)
            return
        fault_pages = {page.number}
        for entry in page.entries:
            fault_pages.update(cache.pages_of(entry))
        incomplete_before = cache.incomplete_pages() - fault_pages
        # 1. A fetch already in flight for this page absorbs the fault.
        for fetch in list(self._pending):
            if fetch.pages & fault_pages:
                self._absorb(fetch, page.number)
        # 2. Demand the remainder, coalescing same-home frontier entries.
        wanted = self._group_by_home(page.entries)
        for home, pointers in wanted.items():
            self._demand(cache, page, home, pointers)
        # 3. Score pages this fault completed beyond its own: each is a
        #    demand round trip that will now never happen.
        saved = incomplete_before - cache.incomplete_pages()
        if saved:
            self.state.transfer_stats.record_saved_round_trips(len(saved))
            self.runtime.stats.transfer_ledger.record_saved_round_trips(
                len(saved)
            )
        # 4. Overlap the next fetch with the resuming ground thread.
        self._maybe_prefetch(cache)

    @staticmethod
    def _group_by_home(
        entries: Sequence,
    ) -> Dict[str, List[LongPointer]]:
        wanted: Dict[str, List[LongPointer]] = {}
        for entry in entries:
            if not entry.resident:
                wanted.setdefault(entry.pointer.space_id, []).append(
                    entry.pointer
                )
        return wanted

    def _demand(
        self,
        cache: "CacheManager",
        page: "PageState",
        home: str,
        pointers: List[LongPointer],
    ) -> None:
        extras = self._coalesce_extras(cache, home, set(pointers))
        requested = pointers + extras
        policy = self.state.policy
        budget = policy.request_budget(self.state)
        order = policy.closure_order
        pages: Set[int] = set()
        for pointer in requested:
            entry = cache.table.entry_for(pointer)
            if entry is not None:
                pages.update(cache.pages_of(entry))
        payload = transfer.encode_request_payload(
            self.state, home, requested, budget, order
        )
        self.runtime.clock.advance(
            self.runtime.cost_model.codec_cost(len(payload))
        )
        fetch_id = self._allocate_fetch_id()
        self._record_batch_event(
            "demand",
            fetch_id,
            home,
            pages=pages,
            faults=[page.number],
            roots=len(pointers),
            coalesced=len(extras),
            issued_at=self.runtime.clock.now,
        )
        reply = self.runtime.session_send(
            self.state,
            home,
            MessageKind.DATA_REQUEST,
            payload,
            reply_kind=MessageKind.DATA_REPLY,
        )
        transfer.apply_reply(
            self.runtime,
            self.state,
            home,
            reply,
            requested,
            set(pointers),
            budget,
            order,
        )

    def _coalesce_extras(
        self,
        cache: "CacheManager",
        home: str,
        demanded: Set[LongPointer],
    ) -> List[LongPointer]:
        """Non-resident same-home entries to ride the demand request.

        Discovery (allocation-table) order, skipping anything already
        demanded or covered by an in-flight fetch, bounded by the
        policy's ``batch_window``.
        """
        window = self.state.policy.batch_window
        if window <= 0:
            return []
        covered = self._pending_pages()
        extras: List[LongPointer] = []
        for entry in cache.table:
            if entry.resident or entry.pointer in demanded:
                continue
            if entry.pointer.space_id != home:
                continue
            if covered & set(cache.pages_of(entry)):
                continue
            extras.append(entry.pointer)
            if len(extras) >= window:
                break
        return extras

    # -- async prefetch --------------------------------------------------------

    def _maybe_prefetch(self, cache: "CacheManager") -> None:
        policy = self.state.policy
        if policy.prefetch_depth <= 0 or policy.max_inflight <= 0:
            return
        while len(self._pending) < policy.max_inflight:
            if not self._issue_prefetch(cache):
                return

    def _issue_prefetch(self, cache: "CacheManager") -> bool:
        """Issue one asynchronous frontier fetch; False when idle."""
        policy = self.state.policy
        covered = self._pending_pages()
        window = max(1, policy.batch_window)
        home: Optional[str] = None
        roots: List[LongPointer] = []
        pages: Set[int] = set()
        for entry in cache.table:
            if entry.resident:
                continue
            entry_pages = set(cache.pages_of(entry))
            if covered & entry_pages:
                continue
            if home is None:
                home = entry.pointer.space_id
            elif entry.pointer.space_id != home:
                continue
            roots.append(entry.pointer)
            pages.update(entry_pages)
            if len(roots) >= window:
                break
        if home is None:
            return False
        budget = policy.request_budget(self.state) * policy.prefetch_depth
        order = policy.closure_order
        payload = transfer.encode_request_payload(
            self.state, home, roots, budget, order
        )
        # Encoding the request is ground-thread work; the exchange
        # itself overlaps execution.
        self.runtime.clock.advance(
            self.runtime.cost_model.codec_cost(len(payload))
        )
        fetch = PendingFetch(
            self._allocate_fetch_id(),
            home,
            roots,
            pages,
            budget,
            order,
            issued_at=self.runtime.clock.now,
        )
        self._record_batch_event(
            "prefetch",
            fetch.fetch_id,
            home,
            pages=pages,
            faults=[],
            roots=len(roots),
            coalesced=0,
            issued_at=fetch.issued_at,
        )
        if self._overlap_simulated:
            clock = self.runtime.clock
            mark = clock.mark()
            fetch.reply = self.runtime.session_send(
                self.state,
                home,
                MessageKind.DATA_REQUEST,
                payload,
                reply_kind=MessageKind.DATA_REPLY,
            )
            fetch.ready_at = clock.now
            clock.rewind(mark)
        else:
            # The exchange runs on a worker thread, so the guarded
            # send's abort path (which mutates session state) stays on
            # the ground thread: the raw send gets only the timeout
            # cap, and :meth:`_collect` converts its failure.
            kwargs = {}
            if self.state.policy.exchange_timeout > 0:
                kwargs["timeout"] = self.state.policy.exchange_timeout
            fetch.future = self._ensure_executor().submit(
                lambda: self.runtime.site.send(
                    home,
                    MessageKind.DATA_REQUEST,
                    payload,
                    reply_kind=MessageKind.DATA_REPLY,
                    **kwargs,
                )
            )
        self._pending.append(fetch)
        return True

    def _absorb(self, fetch: PendingFetch, fault_page: int) -> None:
        """A fault joins an outstanding exchange instead of issuing one."""
        self._pending.remove(fetch)
        reply = self._collect(fetch)
        self.state.transfer_stats.record_piggyback_hit()
        self.runtime.stats.transfer_ledger.record_piggyback_hit()
        self._record_batch_event(
            "absorb",
            fetch.fetch_id,
            fetch.home,
            pages=fetch.pages,
            faults=[fault_page],
            roots=len(fetch.pointers),
            coalesced=0,
            issued_at=fetch.issued_at,
        )
        transfer.apply_reply(
            self.runtime,
            self.state,
            fetch.home,
            reply,
            fetch.pointers,
            set(),
            fetch.budget,
            fetch.order,
        )

    def _collect(self, fetch: PendingFetch) -> bytes:
        if fetch.future is not None:
            try:
                return fetch.future.result()
            except TransportError as exc:
                reason = f"peer-unreachable:{fetch.home}"
                self.runtime.abort_session(self.state, reason=reason)
                raise SessionAbortedError(
                    f"session {self.state.session_id!r} aborted: "
                    f"prefetch from {fetch.home!r} failed ({exc})",
                    session_id=self.state.session_id,
                    reason=reason,
                ) from exc
        # Simulated overlap: the exchange already ran in a rewound
        # window; the fault waits until the reply's arrival instant.
        self.runtime.clock.join(fetch.ready_at)
        assert fetch.reply is not None
        return fetch.reply

    # -- lifecycle -------------------------------------------------------------

    def discard_pending(self) -> None:
        """Drop unabsorbed prefetches (activity is about to transfer).

        While another space holds the thread of control it may mutate
        its home data, so a reply fetched before the transfer could be
        stale by the time a fault would absorb it.  The exchanges are
        reaped (their wire and message costs already counted — honest
        prefetch waste) and the replies discarded.
        """
        for fetch in self._pending:
            if fetch.future is not None:
                try:
                    fetch.future.result()
                except TransportError:
                    # Speculative traffic: a failed prefetch is waste,
                    # not a session error.  If the home really is dead
                    # the next demanded exchange aborts the session.
                    pass
        self._pending.clear()

    def drain(self) -> None:
        """Settle all in-flight work; the session is going away."""
        self.discard_pending()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def abandon(self) -> None:
        """Drop everything without waiting; the session is dead.

        Unlike :meth:`drain` this never blocks on (or raises from)
        exchanges to peers that may themselves be dead: unstarted
        futures are cancelled and the eventual failures of running
        ones are consumed off-thread.
        """
        for fetch in self._pending:
            future = fetch.future
            if future is not None and not future.cancel():
                future.add_done_callback(lambda f: f.exception())
        self._pending.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    # -- internals -------------------------------------------------------------

    def _pending_pages(self) -> Set[int]:
        pages: Set[int] = set()
        for fetch in self._pending:
            pages.update(fetch.pages)
        return pages

    def _allocate_fetch_id(self) -> int:
        self._next_fetch_id += 1
        return self._next_fetch_id

    def _ensure_executor(self) -> "ThreadPoolExecutor":
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=max(1, self.state.policy.max_inflight),
                thread_name_prefix=f"prefetch-{self.runtime.site_id}",
            )
        return self._executor

    def _record_batch_event(
        self,
        kind: str,
        fetch_id: int,
        home: str,
        pages: Set[int],
        faults: List[int],
        roots: int,
        coalesced: int,
        issued_at: float,
    ) -> None:
        self.runtime.trace_event(
            "data-batch",
            f"{self.runtime.site_id}: {kind} fetch #{fetch_id} from "
            f"{home} covering {len(pages)} page(s) "
            f"({roots} root(s), {coalesced} coalesced)",
            session=self.state.session_id,
            space=self.runtime.site_id,
            home=home,
            kind=kind,
            fetch_id=fetch_id,
            pages=sorted(pages),
            faults=list(faults),
            roots=roots,
            coalesced=coalesced,
            issued_at=issued_at,
        )
