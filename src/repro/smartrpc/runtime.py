"""The smart RPC runtime.

:class:`SmartRpcRuntime` extends the conventional runtime with the
paper's three techniques:

* **virtual memory manipulation** — it owns the address space's fault
  handler and dispatches cache-page faults to the owning session's
  :class:`~repro.smartrpc.cache.CacheManager`;
* **pointer swizzling** — it replaces the pointer marshalling hooks, so
  pointers pass freely as arguments, results, and fields;
* **coherency protocol** — it piggybacks the modified data set on every
  activity transfer and performs write-back + invalidation at session
  end.

It also serves the data plane (fault-driven requests with eager
closure) and implements ``extended_malloc`` / ``extended_free``.

Every transfer/eagerness decision — marshalling style, closure budget,
traversal order, hints, placeholder strategy, malloc batching, whether
coherency runs at all — lives in the runtime's
:class:`~repro.smartrpc.policy.TransferPolicy`, the one thing a runtime
is configured with; the paper's baselines are just the ``lazy`` and
``graphcopy`` presets of this one runtime.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.memory.address_space import AddressSpace
from repro.memory.faults import AccessViolation
from repro.namesvc.client import TypeResolver
from repro.rpc import marshal
from repro.rpc.errors import SessionError
from repro.rpc.runtime import RpcRuntime
from repro.rpc.session import SessionState
from repro.simnet.message import MessageKind
from repro.simnet.stats import TransferLedger
from repro.transport.base import Endpoint, Transport, TransportError
from repro.smartrpc import coherency, graphcopy, remote_heap, transfer
from repro.smartrpc.alloc_table import AllocEntry
from repro.smartrpc.cache import CacheManager, CachePage
from repro.smartrpc.errors import SessionAbortedError, SmartRpcError
from repro.smartrpc.long_pointer import (
    LongPointer,
    decode_long_pointer,
    encode_long_pointer,
)
from repro.smartrpc.pipeline import FetchPipeline
from repro.smartrpc.policy import GRAPHCOPY, TransferPolicy, make_policy
from repro.smartrpc.swizzle import Swizzler
from repro.xdr.arch import Architecture
from repro.xdr.stream import XdrDecoder, XdrEncoder


class SmartSessionState(SessionState):
    """Per-space session state: cache, swizzler, batches, dirty relay.

    Also the unit of policy feedback: ``transfer_stats`` is this
    session's shipped-vs-touched ledger and ``policy_data`` the
    policy's per-session scratch (the adaptive budget lives here, so
    concurrent sessions tune independently).
    """

    def __init__(
        self,
        session_id: str,
        ground_site: str,
        runtime: "SmartRpcRuntime",
    ) -> None:
        super().__init__(session_id, ground_site)
        self.policy = runtime.policy
        self.cache = CacheManager(runtime, self)
        self.swizzler = Swizzler(runtime, self)
        self.pipeline = FetchPipeline(runtime, self)
        # Delivery bookkeeping (DESIGN.md §12): ``epoch`` counts this
        # space's activity crossings, ``delivered`` maps a peer to the
        # epoch of the last crossing with it, and each relayed entry
        # maps to the epoch it arrived in.  ``withheld`` is the lowest
        # delivery an error reply left unsent (``None`` if none did).
        self.epoch = 0
        self.delivered: Dict[str, int] = {}
        self.withheld: Optional[int] = None
        self.relayed_dirty: Dict[AllocEntry, int] = {}
        self.pending_allocs: List[AllocEntry] = []
        self.pending_frees: List[LongPointer] = []
        self.transfer_stats = TransferLedger()
        self.policy_data: Dict[str, Any] = {}
        # Fault-tolerance state (DESIGN.md §12): the write-back batch a
        # home space has staged but not yet committed, why this session
        # was torn down early (``None`` while healthy), and when it
        # opened (the session-deadline anchor).
        self.staged_writeback: Optional[memoryview] = None
        self.abort_reason: Optional[str] = None
        self.opened_at = runtime.clock.now
        runtime.trace_event(
            "policy",
            f"{runtime.site_id}: session {session_id} under policy "
            f"{self.policy.name!r}",
            session=session_id,
            space=runtime.site_id,
            ground=ground_site,
            **self.policy.describe(),
        )

    def cross(self, peer: str) -> None:
        """Record one activity crossing with ``peer``, in or out.

        The active space holds every current version, so once activity
        has crossed both sides do, and ``peer`` can lack only what is
        written or relayed here from now on.  Pages written since the
        last crossing turn READ again, so the next write faults and
        restamps its page with the new epoch.
        """
        self.cache.protect_written()
        self.delivered[peer] = self.epoch
        self.epoch += 1

    def since(self, peer: str) -> int:
        """The stamp up to which ``peer`` holds this space's data."""
        since = self.delivered.get(peer, -1)
        if self.withheld is not None and self.withheld < since:
            return self.withheld
        return since

    def withhold(self, peer: str) -> None:
        """Activity left for ``peer`` without a piggyback (an error reply).

        What ``peer`` lacked then may now be missing anywhere, so it is
        owed to every peer, and at session end to its home, from now on.
        """
        self.withheld = self.since(peer)

    def take_staged(self) -> Optional[memoryview]:
        """Unstage the write-back batch and return it."""
        staged, self.staged_writeback = self.staged_writeback, None
        return staged

    def release(self) -> Tuple[int, int]:
        """Give up everything this session holds in this space.

        The one rollback: a normal end (after the pipeline drained and
        the write-back committed), an invalidation and an abort all
        finish here.  In-flight prefetches are dropped, the cache area
        unmapped, the dirty relay and the memory batch cleared, and an
        uncommitted staged batch discarded, so an aborted two-phase
        session leaves this space's originals untouched.  Returns the
        ``(pages, entries)`` footprint dropped.
        """
        self.pipeline.abandon()
        footprint = self.cache.footprint()
        self.cache.invalidate()
        self.relayed_dirty.clear()
        self.pending_allocs.clear()
        self.pending_frees.clear()
        self.take_staged()
        return footprint


class SmartRpcRuntime(RpcRuntime):
    """RPC runtime with transparent remote pointers.

    ``policy`` is a preset name (built by
    :func:`~repro.smartrpc.policy.make_policy`) or a policy value,
    which the runtime keeps as given (it is frozen).
    """

    def __init__(
        self,
        network: Transport,
        site: Endpoint,
        arch: Architecture,
        resolver: Optional[TypeResolver] = None,
        space: Optional[AddressSpace] = None,
        policy: Union[str, TransferPolicy] = "paper",
    ) -> None:
        super().__init__(network, site, arch, resolver=resolver, space=space)
        if isinstance(policy, str):
            policy = make_policy(policy)
        elif not isinstance(policy, TransferPolicy):
            raise SmartRpcError(f"bad policy {policy!r}")
        self.policy = policy
        #: The head of the last DATA_REQUEST served here, ``(image,
        #: session id, ground site)``: a request that opens with the
        #: same bytes names the same session, so its head is not
        #: decoded again.  One tuple, swapped whole, so the serving
        #: threads share it safely.
        self.request_head = transfer.NO_HEAD
        #: The pool table that opened the last batch applied here,
        #: ``(image, pairs)``, on the same terms.
        self.pool_head = transfer.NO_POOL_HEAD
        #: Type id -> how an unhinted closure walk follows that type's
        #: pointer words (it depends on the type's plan alone); filled
        #: by the walks.
        self.closure_follows: Dict[str, tuple] = {}
        self.space.set_fault_handler(self._handle_fault)
        self.mem.observer = self._note_program_access
        site.register_handler(
            MessageKind.DATA_REQUEST,
            lambda message: transfer.handle_data_request(self, message),
        )
        site.register_handler(
            MessageKind.WRITEBACK_PREPARE,
            lambda message: coherency.handle_writeback_prepare(self, message),
        )
        site.register_handler(
            MessageKind.WRITEBACK_COMMIT,
            lambda message: coherency.handle_writeback_commit(self, message),
        )
        site.register_handler(
            MessageKind.INVALIDATE,
            lambda message: coherency.handle_invalidate(self, message),
        )
        site.register_handler(
            MessageKind.MEMORY_BATCH,
            lambda message: remote_heap.handle_memory_batch(self, message),
        )

    @property
    def _piggyback_expected(self) -> bool:
        # Coherency-free policies (graphcopy) make no piggyback
        # promises, so transfer traces record ``piggyback: null`` as
        # the conventional runtime's do.
        return self.policy.coherency

    # -- cache page fault dispatch --------------------------------------------
    #
    # A cache page is mapped as its session's ``CachePage``, which names
    # its cache, so routing a fault or a touch is one page-dict lookup
    # in the space, and nothing is registered per page.

    def _handle_fault(self, fault: AccessViolation) -> None:
        page = self.space.page_if_mapped(fault.page_number)
        if not isinstance(page, CachePage):
            # Not a cache page: a genuine protection bug — surface it.
            raise fault
        page.cache.handle_fault(fault)

    def _note_program_access(
        self, address: int, size: int, write: bool
    ) -> bool:
        """The ``Mem`` observer, and the one scorer of a first touch.

        The program plane touched ``size`` bytes at ``address``.  Only
        cache pages holding untouched shipped data matter for
        shipped-vs-touched accounting: every shipped row of the page
        that the access overlaps is scored touched, and the bytes are
        posted to the session's and the runtime's ledgers at once.  A
        bulk run arrives as one callback over its whole byte range; one
        that crosses pages is scored page by page through this same
        method, and its answer is never asked.

        The answer for a one-page access is "settled" once no later
        access to this page can score, so ``Mem`` stops reporting it
        until the space's generation moves.  That holds for a page of
        no cache, and for a cache page none of whose rows is shipped
        and still untouched (DESIGN.md §15): a row is flagged shipped
        only on the fill path, for a row not yet resident, and such a
        row's page is mapped NONE (a page is released only once every
        row on it is resident, and a released page takes no new rows).
        A page leaves NONE only through ``protect`` /
        ``protect_pages``, which bump the generation, so while a page
        is readable — the only pages whose tokens settle — none of its
        rows can become untouched shipped data.
        """
        page_size = self.space.page_size
        first = address // page_size
        if size > 1 and (address + size - 1) // page_size != first:
            end = address + size
            while address < end:
                stop = min(end, (address // page_size + 1) * page_size)
                self._note_program_access(address, stop - address, write)
                address = stop
            return False
        page = self.space.page_if_mapped(first)
        if type(page) is not CachePage:  # no cache's page
            return True
        cache = page.cache
        if not cache.untouched_shipped:
            return True
        reach = address + size if size > 0 else address + 1
        settled = True
        rows = touched = prefetched = 0
        for entry in page:
            if entry.touched or not entry.shipped:
                continue
            start = entry.local_address
            if start < reach and address < start + entry.size:
                entry.touched = True
                rows += 1
                touched += entry.size
                if entry.prefetched:
                    prefetched += entry.size
            else:
                settled = False
        if rows:
            cache.untouched_shipped -= rows
            ledger = cache.state.transfer_stats
            ledger.closure_bytes_touched += touched
            ledger.prefetch_bytes_touched += prefetched
            ledger = self.stats.transfer_ledger
            ledger.closure_bytes_touched += touched
            ledger.prefetch_bytes_touched += prefetched
        return settled

    # -- session plumbing -----------------------------------------------------

    def _make_session_state(
        self, session_id: str, ground_site: str
    ) -> SmartSessionState:
        return SmartSessionState(session_id, ground_site, self)

    #: ``(session_id, ground_site)`` -> the session's
    #: :class:`SmartSessionState`, made here if new: the lookup itself,
    #: with no forwarding frame (every DATA_REQUEST makes one).
    ensure_smart_session = RpcRuntime._ensure_session

    def _teardown_session(self, state: SmartSessionState) -> None:
        state.pipeline.drain()
        if self.policy.coherency:
            coherency.end_session(self, state)

    def invalidate_session(self, session_id: str) -> None:
        """Drop a session on the invalidation multicast.

        Also the presumed-abort path: :meth:`SmartSessionState.release`
        discards a staged-but-uncommitted write-back batch.
        """
        state = self._sessions.pop(session_id, None)
        if state is None:
            return
        state.closed = True
        state.release()

    # -- fault tolerance (DESIGN.md §12) --------------------------------------

    def _exchange_cap(self, state: SmartSessionState) -> Optional[float]:
        """The per-exchange timeout, ``None`` when uncapped (zero)."""
        return state.policy.exchange_timeout or None

    def session_send(
        self,
        state: SmartSessionState,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
    ) -> bytes:
        """One guarded session-scoped exchange.

        Enforces the policy's session deadline and per-exchange timeout
        and converts a transport failure (dead peer, exhausted retries)
        into an immediate local abort plus a typed
        :class:`SessionAbortedError` — a crashed peer never hangs the
        surviving site.  With both knobs at zero this is exactly the
        unguarded send the protocol always used.
        """
        deadline = state.policy.session_deadline
        if deadline > 0 and self.clock.now - state.opened_at > deadline:
            self.abort_session(state, reason="deadline")
            raise SessionAbortedError(
                f"session {state.session_id!r} exceeded its "
                f"{deadline}s deadline",
                session_id=state.session_id,
                reason="deadline",
            )
        try:
            return self.site.send(
                dst, kind, payload, reply_kind=reply_kind,
                timeout=self._exchange_cap(state),
            )
        except TransportError as exc:
            reason = f"peer-unreachable:{dst}"
            self.abort_session(state, reason=reason)
            raise SessionAbortedError(
                f"session {state.session_id!r} aborted: {kind.value} "
                f"exchange with {dst!r} failed ({exc})",
                session_id=state.session_id,
                reason=reason,
            ) from exc

    def invalidate_participants(self, state: SmartSessionState) -> None:
        """Multicast INVALIDATE to every other participant, best effort.

        Sent in sorted order, each send capped by the exchange timeout
        so a dead peer's full retry schedule never stalls the ground; a
        peer that cannot be reached cleans up via its own orphan reaper.
        """
        encoder = XdrEncoder()
        encoder.pack_string(state.session_id)
        payload = encoder.getvalue()
        cap = self._exchange_cap(state)
        for participant in sorted(state.participants - {self.site_id}):
            try:
                self.site.send(
                    participant, MessageKind.INVALIDATE, payload,
                    timeout=cap,
                )
            except TransportError:
                continue
            self.trace_event(
                "invalidate",
                f"{self.site_id}: session {state.session_id} "
                f"invalidated at {participant}",
                session=state.session_id,
                space=self.site_id,
                dst=participant,
            )

    def abort_session(self, state: SmartSessionState, reason: str) -> None:
        """Tear a session down early, rolling its cached state back.

        Idempotent — a session aborts at most once.  When this space
        grounds the session the surviving participants get a
        best-effort INVALIDATE so they roll back now instead of
        waiting for their orphan reapers.
        """
        if state.abort_reason is not None:
            return
        state.abort_reason = reason
        state.closed = True
        self._sessions.pop(state.session_id, None)
        self.stats.sessions_aborted += 1
        self.trace_event(
            "session-abort",
            f"{self.site_id}: session {state.session_id} aborted "
            f"({reason})",
            session=state.session_id,
            space=self.site_id,
            ground=state.ground_site,
            reason=reason,
        )
        if state.ground_site == self.site_id:
            self.invalidate_participants(state)
        pages, entries = state.release()
        self.stats.orphans_reaped += 1
        self.trace_event(
            "orphan-reaped",
            f"{self.site_id}: session {state.session_id} reaped "
            f"({pages} page(s), {entries} table entr(ies), {reason})",
            session=state.session_id,
            space=self.site_id,
            ground=state.ground_site,
            pages=pages,
            entries=entries,
            reason=reason,
        )

    def reap_orphans(
        self,
        ages: Dict[str, float],
        grace: Optional[float] = None,
    ) -> List[str]:
        """Abort sessions whose peers stopped heartbeating.

        ``ages`` maps live site ids to seconds since their last
        directory heartbeat (:meth:`DirectoryClient.list`); a watched
        peer missing from the map, or older than the grace period,
        counts as dead.  The ground space watches every participant;
        a participant watches only the ground (the ground's own
        reaper tells it about third-site deaths).  Returns the ids of
        the sessions reaped.
        """
        if grace is None:
            grace = self.policy.orphan_grace
        if grace <= 0:
            return []
        reaped: List[str] = []
        for state in list(self._sessions.values()):
            if state.ground_site == self.site_id:
                watched = sorted(state.participants - {self.site_id})
            else:
                watched = [state.ground_site]
            for peer in watched:
                age = ages.get(peer)
                if age is not None and age <= grace:
                    continue
                self.abort_session(state, reason=f"peer-dead:{peer}")
                reaped.append(state.session_id)
                break
        return reaped

    # -- coherency / memory-batch piggyback -----------------------------------

    def _make_piggyback(self, state: SmartSessionState, dst: str) -> bytes:
        # Activity is about to transfer: while another space runs it
        # may mutate its home data, so unabsorbed prefetched replies
        # would go stale — drop them before control leaves.
        state.pipeline.discard_pending()
        if not self.policy.coherency:
            return b""
        remote_heap.flush(self, state)
        piggyback = coherency.encode_piggyback(self, state, dst)
        state.cross(dst)
        return piggyback

    def _apply_piggyback(
        self, state: SmartSessionState, src: str, data: bytes
    ) -> None:
        if not self.policy.coherency:
            if data:
                raise SmartRpcError(
                    f"policy {self.policy.name!r} runs no coherency "
                    "protocol but received piggyback data"
                )
            return
        coherency.apply_piggyback(self, state, src, data)
        state.cross(src)

    def _withhold_piggyback(self, state: SmartSessionState, dst: str) -> None:
        if self.policy.coherency:
            state.withhold(dst)

    def flush_memory_batch(self, state: SmartSessionState) -> None:
        """Flush pending extended_malloc/free operations now."""
        # The batch can free home data an in-flight prefetch covers;
        # settle the pending table before mutating remote heaps.
        state.pipeline.discard_pending()
        remote_heap.flush(self, state)

    # -- pointer marshalling hooks --------------------------------------------

    def _bind_pointer_out(
        self, state: SmartSessionState
    ) -> marshal.PointerOut:
        if self.policy.marshalling == GRAPHCOPY:

            def copy_out(
                encoder: XdrEncoder, pointer: int, target_type_id: str
            ) -> None:
                graphcopy.encode_graph(self, encoder, pointer, target_type_id)

            return copy_out

        def pointer_out(
            encoder: XdrEncoder, pointer: int, _target_type_id: str
        ) -> None:
            long_pointer = state.swizzler.unswizzle(pointer)
            if long_pointer is not None and long_pointer.is_provisional:
                raise SmartRpcError(
                    f"provisional {long_pointer!r} leaked into arguments; "
                    "the memory batch must flush first"
                )
            encode_long_pointer(encoder, long_pointer)

        return pointer_out

    def _bind_pointer_in(self, state: SmartSessionState) -> marshal.PointerIn:
        if self.policy.marshalling == GRAPHCOPY:

            def copy_in(decoder: XdrDecoder, target_type_id: str) -> int:
                return graphcopy.decode_graph(self, decoder, target_type_id)

            return copy_in

        def pointer_in(decoder: XdrDecoder, _target_type_id: str) -> int:
            return state.swizzler.swizzle(decode_long_pointer(decoder))

        return pointer_in

    # -- the §3.5 primitives --------------------------------------------------

    def extended_malloc(
        self, session: Any, space_id: str, type_id: str
    ) -> int:
        """Allocate ``type_id`` data in ``space_id``; local pointer back.

        ``session`` is anything exposing ``.state`` (an ``RpcSession``
        or a ``CallContext``).
        """
        state = session.state
        if not isinstance(state, SmartSessionState):
            raise SessionError("extended_malloc needs a smart-RPC session")
        if not self.policy.coherency:
            raise SmartRpcError(
                f"policy {self.policy.name!r} has no coherency protocol "
                "to carry extended_malloc"
            )
        pointer = remote_heap.extended_malloc(self, state, space_id, type_id)
        if not self.policy.batch_memory_ops:
            # Ablation mode: the paper's rejected design — one remote
            # message per allocation instead of batching.
            self.flush_memory_batch(state)
        return pointer

    def extended_free(self, session: Any, pointer: int) -> None:
        """Release the data referenced by ``pointer`` wherever it lives."""
        state = session.state
        if not isinstance(state, SmartSessionState):
            raise SessionError("extended_free needs a smart-RPC session")
        if not self.policy.coherency:
            raise SmartRpcError(
                f"policy {self.policy.name!r} has no coherency protocol "
                "to carry extended_free"
            )
        remote_heap.extended_free(self, state, pointer)
        if not self.policy.batch_memory_ops:
            self.flush_memory_batch(state)
