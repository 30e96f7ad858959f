"""The fault-coalescing fetch pipeline (demand batching + prefetch).

One :class:`FetchPipeline` lives on each smart session and owns the
fault-driven fill path.  With both pipeline switches off (every preset
but ``pipelined``) it is a byte-identical pass-through to the classic
one-request-per-home fill of
:meth:`repro.smartrpc.cache.CacheManager._fill`.  The ``pipelined``
policy preset turns on both switches of the
:class:`~repro.smartrpc.policy.TransferPolicy`:

* **coalescing** (``coalesce``) — a demand request carries, beyond the
  faulted page's pointers, up to :data:`BATCH_WINDOW` other
  non-resident same-home table entries (allocation-table discovery
  order).  The home walks the closure from all of them, so one round
  trip fills several placeholder pages.
* **async prefetch** (``prefetch``) — after a fill, while no fetch is
  in flight, the pipeline issues one asynchronous request for frontier
  entries with :data:`PREFETCH_DEPTH` times the policy's closure
  budget, overlapping the exchange with ground-thread execution.  A
  later fault on a page that fetch covers absorbs its reply instead of
  issuing a second exchange (the piggyback), and a demand never
  coalesces a page it covers, so no page is ever covered by two
  fetches.  On the simulated transport the overlap is modelled with
  :meth:`~repro.simnet.clock.SimClock.mark` /
  :meth:`~repro.simnet.clock.SimClock.rewind` /
  :meth:`~repro.simnet.clock.SimClock.join`; on a real transport the
  exchange runs on a worker thread and the fault blocks on its future.

A prefetched reply is held *unapplied* until a fault absorbs it, and
it is discarded on every activity transfer (the only instants another
space can run and mutate home data), so results and final heap state
are identical with the pipeline on or off — the property suite in
``tests/properties/test_pipeline_equivalence.py`` checks exactly that.

Every issue/absorb is recorded as a ``data-batch`` trace event for the
offline SRPC310 conformance rule, and the wins feed the
:class:`~repro.simnet.stats.TransferLedger` counters
``round_trips_saved`` / ``piggyback_hits``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.simnet.message import MessageKind
from repro.smartrpc import transfer
from repro.smartrpc.errors import SessionAbortedError
from repro.smartrpc.long_pointer import LongPointer
from repro.transport.base import TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future, ThreadPoolExecutor
    from repro.smartrpc.cache import CacheManager, CachePage
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

#: Frontier entries one coalesced demand request may add, and the
#: roots of one prefetch while coalescing is on (one while it is off).
BATCH_WINDOW = 32
#: A prefetch's closure budget, in multiples of the policy's.
PREFETCH_DEPTH = 4


class PendingFetch:
    """One data exchange the pipeline issued (held while in flight)."""

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
        #: Whether either switch is on; the policy is frozen.
        self.active = state.policy.coalesce or state.policy.prefetch
        self._pending: Optional[PendingFetch] = None
        self._next_fetch_id = 0
        self._executor: Optional["ThreadPoolExecutor"] = None

    # -- the fill path ---------------------------------------------------------

    def fill_page(self, cache: "CacheManager", page: "CachePage") -> None:
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
            for home, pointers in self._group_by_home(page).items():
                transfer.request_data(self.runtime, self.state, home, pointers)
            return
        fault_pages = {page.number}
        for entry in page:
            fault_pages.update(cache.pages_of(entry))
        incomplete_before = cache.incomplete_pages() - fault_pages
        # 1. The fetch in flight absorbs the fault if it covers the page.
        fetch = self._pending
        if fetch is not None and not fetch.pages.isdisjoint(fault_pages):
            self._pending = None
            self._absorb(fetch, page.number)
        # 2. Demand the remainder, coalescing same-home frontier entries.
        for home, pointers in self._group_by_home(page).items():
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
        if self.state.policy.prefetch and self._pending is None:
            self._prefetch(cache)

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

    def _frontier(
        self,
        cache: "CacheManager",
        home: Optional[str],
        window: int,
        skip: Collection[LongPointer] = (),
    ) -> Tuple[Optional[str], List[LongPointer], Set[int]]:
        """Up to ``window`` non-resident entries homed at ``home``.

        Discovery (allocation-table) order, skipping ``skip`` and every
        entry on a page the fetch in flight covers; ``home`` ``None``
        takes the first eligible entry's home.  Returns the home, the
        entries' pointers and the pages they occupy.
        """
        covered = self._pending.pages if self._pending is not None else set()
        pointers: List[LongPointer] = []
        pages: Set[int] = set()
        for entry in cache.table:
            pointer = entry.pointer
            if entry.resident or pointer in skip:
                continue
            if home is not None and pointer.space_id != home:
                continue
            entry_pages = cache.pages_of(entry)
            if not covered.isdisjoint(entry_pages):
                continue
            home = pointer.space_id
            pointers.append(pointer)
            pages.update(entry_pages)
            if len(pointers) >= window:
                break
        return home, pointers, pages

    def _issue(
        self,
        kind: str,
        home: str,
        pointers: List[LongPointer],
        pages: Set[int],
        faults: List[int],
        coalesced: int,
        depth: int,
    ) -> Tuple[PendingFetch, bytes]:
        """Budget, encode and record one fetch; returns it and its
        request payload.  Encoding is ground-thread work, charged here;
        the exchange is the caller's."""
        policy = self.state.policy
        budget = policy.request_budget(self.state) * depth
        order = policy.closure_order
        payload = transfer.encode_request_payload(
            self.state, home, pointers, budget, order
        )
        clock = self.runtime.clock
        clock.advance(self.runtime.cost_model.codec_cost(len(payload)))
        self._next_fetch_id += 1
        fetch = PendingFetch(
            self._next_fetch_id, home, pointers, pages, budget, order,
            issued_at=clock.now,
        )
        self._record_batch_event(kind, fetch, faults, coalesced)
        return fetch, payload

    def _demand(
        self,
        cache: "CacheManager",
        page: "CachePage",
        home: str,
        pointers: List[LongPointer],
    ) -> None:
        extras: List[LongPointer] = []
        pages: Set[int] = set()
        if self.state.policy.coalesce:
            _, extras, pages = self._frontier(
                cache, home, BATCH_WINDOW, set(pointers)
            )
        for pointer in pointers:
            entry = cache.table.entry_for(pointer)
            if entry is not None:
                pages.update(cache.pages_of(entry))
        requested = pointers + extras
        fetch, payload = self._issue(
            "demand", home, requested, pages, [page.number], len(extras), 1
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
            fetch.budget,
            fetch.order,
        )

    # -- async prefetch --------------------------------------------------------

    def _prefetch(self, cache: "CacheManager") -> None:
        """Issue one asynchronous frontier fetch, if any entry waits."""
        window = BATCH_WINDOW if self.state.policy.coalesce else 1
        home, roots, pages = self._frontier(cache, None, window)
        if home is None:
            return
        fetch, payload = self._issue(
            "prefetch", home, roots, pages, [], 0, PREFETCH_DEPTH
        )
        if hasattr(self.runtime.clock, "rewind"):
            # The simulated clock can rewind, so the exchange runs
            # inline and is re-timed; a wall clock cannot, so there it
            # runs on a worker thread instead.
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
            # The one data-path exchange not sent through
            # ``session_send``: it runs on a worker thread, and the
            # guarded send's abort path (which mutates session state)
            # must stay on the ground thread.  The raw send gets only
            # the timeout cap, and :meth:`_collect` converts its
            # failure into the abort.
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"prefetch-{self.runtime.site_id}",
                )
            cap = self.runtime._exchange_cap(self.state)
            fetch.future = self._executor.submit(
                lambda: self.runtime.site.send(
                    home,
                    MessageKind.DATA_REQUEST,
                    payload,
                    reply_kind=MessageKind.DATA_REPLY,
                    **cap,
                )
            )
        self._pending = fetch

    def _absorb(self, fetch: PendingFetch, fault_page: int) -> None:
        """A fault joins an outstanding exchange instead of issuing one."""
        reply = self._collect(fetch)
        self.state.transfer_stats.record_piggyback_hit()
        self.runtime.stats.transfer_ledger.record_piggyback_hit()
        self._record_batch_event("absorb", fetch, [fault_page], 0)
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
        """Drop an unabsorbed prefetch (activity is about to transfer).

        While another space holds the thread of control it may mutate
        its home data, so a reply fetched before the transfer could be
        stale by the time a fault would absorb it.  The exchange is
        reaped (its wire and message costs already counted — honest
        prefetch waste) and the reply discarded.
        """
        fetch, self._pending = self._pending, None
        if fetch is not None and fetch.future is not None:
            try:
                fetch.future.result()
            except TransportError:
                # Speculative traffic: a failed prefetch is waste, not
                # a session error.  If the home really is dead the
                # next demanded exchange aborts the session.
                pass

    def drain(self) -> None:
        """Settle all in-flight work; the session is going away."""
        self.discard_pending()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def abandon(self) -> None:
        """Drop everything without waiting; the session is dead.

        Unlike :meth:`drain` this never blocks on (or raises from) an
        exchange with a peer that may itself be dead: an unstarted
        future is cancelled and the eventual failure of a running one
        is consumed off-thread.
        """
        fetch, self._pending = self._pending, None
        future = fetch.future if fetch is not None else None
        if future is not None and not future.cancel():
            future.add_done_callback(lambda f: f.exception())
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    # -- internals -------------------------------------------------------------

    def _record_batch_event(
        self,
        kind: str,
        fetch: PendingFetch,
        faults: List[int],
        coalesced: int,
    ) -> None:
        roots = len(fetch.pointers) - coalesced
        self.runtime.trace_event(
            "data-batch",
            f"{self.runtime.site_id}: {kind} fetch #{fetch.fetch_id} from "
            f"{fetch.home} covering {len(fetch.pages)} page(s) "
            f"({roots} root(s), {coalesced} coalesced)",
            session=self.state.session_id,
            space=self.runtime.site_id,
            home=fetch.home,
            kind=kind,
            fetch_id=fetch.fetch_id,
            pages=sorted(fetch.pages),
            faults=faults,
            roots=roots,
            coalesced=coalesced,
            issued_at=fetch.issued_at,
        )
