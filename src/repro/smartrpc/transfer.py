"""The data-plane wire protocol: batches, requests, write-back.

One *batch* format carries typed data everywhere data moves:

* in a ``DATA_REPLY`` from a home space (fault-driven fill plus eager
  closure),
* piggybacked on every call and reply (the coherency protocol's
  modified data set),
* in a ``WRITEBACK_PREPARE`` at session end (staged at its home,
  applied by the ``WRITEBACK_COMMIT`` that follows).

Batch layout (canonical XDR)::

    string pool | item count | items...
    item := pooled long pointer | canonical value bytes

Pointer fields inside a value are pooled long pointers, unswizzled by
the sender and swizzled by the receiver, so one transfer both fills
data and extends the receiver's data allocation table with placeholder
entries for the frontier — "the data allocated to a protected page
area is transferred later when necessary".
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.simnet.message import Message, MessageKind
from repro.smartrpc.closure import (
    BREADTH_FIRST,
    DEPTH_FIRST,
    ClosureItem,
    ClosureWalker,
)
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import (
    PROVISIONAL_BASE,
    HandlePool,
    LongPointer,
    decode_long_pointer_pooled,
    encode_long_pointer_pooled,
)
from repro.xdr.errors import XdrError
from repro.xdr.raw import LONG_SLOT, WirePlan, wire_plan
from repro.xdr.stream import XdrDecoder, XdrEncoder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

_STATUS_OK = 0
_STATUS_ERROR = 1

# The requester's traversal order travels in the DATA_REQUEST so the
# home space walks the closure the way the requesting policy wants.
_ORDER_CODES = {BREADTH_FIRST: 0, DEPTH_FIRST: 1}
_ORDER_NAMES = {code: name for name, code in _ORDER_CODES.items()}

#: One non-NULL pooled long pointer: pool handle + home address.
_LONG = struct.Struct(">" + LONG_SLOT)


# -- batch encoding -----------------------------------------------------------


def encode_batch(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    items: Sequence[ClosureItem],
    resolved: Optional[Dict[int, LongPointer]] = None,
) -> bytes:
    """Encode data items into one batch (no time charged here).

    ``resolved`` is the request's ``local address -> long pointer``
    memo: a :class:`ClosureWalker` hands over what its walk already
    resolved, and every pointer unswizzled here joins it, so no address
    is translated twice while one request is served.  It must not
    outlive the request — the heap and the allocation table move on.
    """
    if resolved is None:
        resolved = {}
    pool = HandlePool()
    intern = pool.intern
    body = XdrEncoder()
    pack = body.pack_struct
    arch = runtime.arch
    unpack_raw = runtime.space.unpack_raw
    unswizzle = state.swizzler.unswizzle

    def translate(value: int) -> LongPointer:
        pointer = unswizzle(value)
        if pointer.is_provisional:
            raise SmartRpcError(
                f"provisional {pointer!r} leaked onto the wire; the "
                "memory batch must flush before any transfer"
            )
        resolved[value] = pointer
        return pointer

    def pointer_out(value: int, _target: str) -> None:
        pointer = (resolved.get(value) or translate(value)) if value else None
        encode_long_pointer_pooled(body, pointer, pool)

    plans: Dict[str, WirePlan] = {}
    for item in items:
        space_id, address, type_id = item.pointer
        plan = plans.get(type_id)
        if plan is None:
            plan = plans[type_id] = wire_plan(item.spec, arch)
        flat = plan.flat
        if flat is None:
            # A union inside: the hook-driven codec dispatches its arm.
            encode_long_pointer_pooled(body, item.pointer, pool)
            runtime.codec.encode(item.address, item.spec, body, pointer_out)
            continue
        if address >= PROVISIONAL_BASE:
            raise XdrError(
                f"provisional {item.pointer!r} must never reach the wire"
            )
        handle = intern(space_id, type_id)
        values = unpack_raw(flat.native, item.address + flat.offset)
        key = 1
        if flat.slot_bits:
            values = list(values)
            for bit, index in flat.slot_bits:
                value = values[index]
                if value:
                    pointer = resolved.get(value) or translate(value)
                    values[index] = intern(pointer[0], pointer[2])
                    values[index + 1] = pointer[1]
                    key |= bit
        if flat.enums:
            flat.check_enums(values)
        pack(flat.codecs.get(key) or flat.wire(key), handle, address, *values)
    head = XdrEncoder()
    pool.encode(head)
    head.pack_uint32(len(items))
    return head.getvalue() + body.getvalue()


def apply_batch(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    payload: bytes,
    overwrite: bool,
    demanded: Optional[Set[LongPointer]] = None,
) -> int:
    """Install a batch into this space; returns items applied.

    ``overwrite=False`` is the fault-driven fill path: an item whose
    placeholder is already resident is skipped (the caching effect —
    and local modifications are never clobbered by stale home data).
    ``overwrite=True`` is the coherency path: incoming data is strictly
    newer (single active thread), so it always lands; items whose home
    is *this* space update the original data itself.

    ``demanded`` (fill path only) is the set of requested root
    pointers; items outside it were *prefetched* by the eager closure,
    and the split feeds the shipped-vs-touched ledgers.

    One pass per item does all of a datum's work: its own row (a
    lookup in the table's long-pointer dict, keyed by a plain tuple —
    a :class:`LongPointer` is built only for a row that is new), the
    swizzle of each pointer slot (the same lookup; a miss is one
    :meth:`~repro.smartrpc.cache.CacheManager.place`, which builds the
    row and any fresh page), residency and the page release it may
    complete, the shipped flags and the per-datum seal.  The union
    path swizzles through the session's swizzler instead.
    """
    decoder = XdrDecoder(payload)
    pool = HandlePool.decode(decoder)
    count = decoder.unpack_uint32()
    peek = decoder.peek_uint32
    unpack = decoder.unpack_struct
    lookup = pool.lookup
    # Per pool handle, filled at the handle's first item or first new
    # row so a cold resolver queries the name server where it always did.
    plans: List[Optional[WirePlan]] = [None] * len(pool)
    wire_plan_of = runtime.wire_plan
    site_id = runtime.site_id
    owns = runtime.heap.owns
    store = runtime.codec.store
    cache = state.cache
    entry_for = cache.table.entry_for
    place = cache.place
    pages = cache.pages
    page_size = cache.page_size
    seal = cache.datum_seal
    swizzle = state.swizzler.swizzle

    def pointer_in(_target: str) -> int:
        return swizzle(decode_long_pointer_pooled(decoder, pool))

    applied = 0
    untouched = 0  # entries newly flagged shipped, none touched yet
    shipped = [0, 0]  # bytes of demanded roots, bytes of prefetch
    last = -1  # the previous item's handle: runs of one type are the rule
    # Pages the batch completes turn READ in one pass at its end —
    # should an item raise, those completed before it still do.
    held = cache.hold_releases()
    try:
        for _ in range(count):
            handle = peek()
            if handle != last:
                if not handle:
                    raise SmartRpcError("batch item with NULL long pointer")
                space_id, type_id = lookup(handle)
                plan = plans[handle - 1]
                if plan is None:
                    plan = plans[handle - 1] = wire_plan_of(type_id)
                flat = plan.flat
                home = space_id == site_id
                last = handle
            values = unpack(_LONG if flat is None else flat.sniff(peek, 1))
            address = values[1]
            if home:
                # We are the home: the batch updates original data.
                pointer = LongPointer(space_id, address, type_id)
                if not owns(address):
                    raise SmartRpcError(
                        f"batch updates dead home data {pointer!r}"
                    )
                entry = None
                target = address
            else:
                key = (space_id, address, type_id)
                entry = entry_for(key)
                if entry is None:
                    entry = place(
                        LongPointer(space_id, address, type_id),
                        plan.size,
                        min(plan.alignment, 8),
                    )
                elif entry.resident and not overwrite:
                    if flat is None:
                        _skip(decoder, plan.steps, pool)
                    else:
                        _check_handles(flat, values, 2, pool)
                    runtime.stats.duplicate_entries += 1
                    if demanded is not None:
                        cache.note_duplicate_shipment(entry.size)
                    continue
                target = entry.local_address
            if flat is None:
                runtime.codec.decode(
                    decoder,
                    target,
                    runtime.resolver.resolve(type_id),
                    pointer_in,
                )
            else:
                if flat.checked:
                    flat.check_decoded(values, 2)
                if flat.slot_bits:
                    values = list(values)
                    for _bit, index in flat.slot_bits:
                        index += 2
                        slot = values[index]
                        if not slot:
                            continue
                        slot_space, slot_type = lookup(slot)
                        slot_address = values[index + 1]
                        if slot_space == site_id:
                            values[index] = swizzle(LongPointer(
                                slot_space, slot_address, slot_type
                            ))
                        else:
                            row = entry_for(
                                (slot_space, slot_address, slot_type)
                            )
                            if row is None:
                                slot_plan = plans[slot - 1]
                                if slot_plan is None:
                                    slot_plan = plans[slot - 1] = (
                                        wire_plan_of(slot_type)
                                    )
                                row = place(
                                    LongPointer(
                                        slot_space, slot_address, slot_type
                                    ),
                                    slot_plan.size,
                                    min(slot_plan.alignment, 8),
                                )
                            values[index] = row.local_address
                        values[index + 1] = b""
                store(flat, target, values[2:])
            applied += 1
            if entry is None:
                continue
            if not entry.resident:
                if entry.offset + entry.size > page_size:
                    cache.mark_resident(entry)  # a span: all its pages
                else:
                    entry.resident = True
                    number = entry.page_number
                    page = pages[number]
                    for row in page:
                        if not row.resident:
                            break
                    else:
                        page.closed = True
                        if not page.dirty:
                            held.append(number)
            if demanded is not None:
                prefetched = key not in demanded
                if not entry.shipped and not entry.touched:
                    untouched += 1
                entry.shipped = True
                entry.prefetched = prefetched
                shipped[prefetched] += entry.size
            if overwrite:
                # Dirty data stays part of the modified data set here
                # too, so it keeps travelling with the thread of control,
                # stamped with the epoch it arrived in.
                state.relayed_dirty[entry] = state.epoch
            # One datum's frontier children share placeholder pages; the
            # next datum's children start fresh ones (locality grouping).
            if seal is not None:
                seal()
        decoder.expect_done()
        cache.finish_batch()
    finally:
        cache.release_held()
        # Sums are order-free, so the counters move once per batch —
        # by what did land, should an item have raised.
        runtime.stats.entries_transferred += applied
        cache.untouched_shipped += untouched
        if demanded is not None:
            cache.post_shipped(*shipped)
    return applied


def _skip(decoder: XdrDecoder, steps: Sequence, pool: HandlePool) -> None:
    for step in steps:
        if step.arms is not None:
            _skip(decoder, step.arm(decoder.unpack_int32()).steps, pool)
        else:
            values = decoder.unpack_struct(
                step.sniff(decoder.peek_uint32, 0)
            )
            _check_handles(step, values, 0, pool)


def _check_handles(
    flat, values: Sequence, lead: int, pool: HandlePool
) -> None:
    """Raise unless every long pointer among ``values`` is well formed."""
    for _bit, index in flat.slot_bits:
        if values[index + lead]:
            space_id, type_id = pool.lookup(values[index + lead])
            LongPointer(space_id, values[index + lead + 1], type_id)


# -- the data-request protocol ------------------------------------------------


def encode_request_payload(
    state: "SmartSessionState",
    home: str,
    pointers: Sequence[LongPointer],
    budget: int,
    order: str,
) -> bytes:
    """Encode one DATA_REQUEST payload (no time charged here).

    The request names each datum by its bare home address: the home
    space is the message destination and the data type is recorded in
    the home's own typed heap, so neither travels.
    """
    encoder = XdrEncoder()
    encoder.pack_string(state.session_id)
    encoder.pack_string(state.ground_site)
    encoder.pack_uint32(budget)
    encoder.pack_uint32(_ORDER_CODES[order])
    encoder.pack_uint32(len(pointers))
    for pointer in pointers:
        if pointer.space_id != home:
            raise SmartRpcError(
                f"{pointer!r} requested from {home!r}, not its home"
            )
        encoder.pack_uint64(pointer.address)
    return encoder.getvalue()


def apply_reply(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    home: str,
    reply: bytes,
    requested: Sequence[LongPointer],
    demanded: Set[LongPointer],
    budget: int,
    order: str,
) -> int:
    """Decode and install one DATA_REPLY; record the policy decision.

    ``requested`` is every root named in the request; ``demanded`` the
    subset the program actually faulted on (coalesced or prefetched
    roots outside it score as prefetch in the ledgers).  Charges the
    reply's codec cost to the clock — callers charge the request side.
    """
    runtime.clock.advance(runtime.cost_model.codec_cost(len(reply)))
    decoder = XdrDecoder(reply)
    status = decoder.unpack_uint32()
    if status == _STATUS_ERROR:
        raise SmartRpcError(
            f"data request to {home!r} failed: {decoder.unpack_string()}"
        )
    # Zero-copy: the batch is decoded in place (apply_batch
    # materialises every item into the heap), so on carriers that
    # deliver payloads as shared-memory views the page bytes are
    # copied exactly once — segment straight into the local heap.
    batch = decoder.unpack_opaque_view()
    decoder.expect_done()
    policy = state.policy
    ledger = state.transfer_stats
    shipped_before = ledger.closure_bytes_shipped
    prefetch_before = ledger.prefetch_bytes_shipped
    applied = apply_batch(
        runtime, state, batch, overwrite=False, demanded=demanded
    )
    shipped = ledger.closure_bytes_shipped - shipped_before
    prefetched = ledger.prefetch_bytes_shipped - prefetch_before
    runtime.trace_event(
        "policy-decision",
        f"{runtime.site_id}: request to {home} under policy "
        f"{policy.name!r} (budget {budget}, {order}; shipped {shipped} B, "
        f"prefetched {prefetched} B)",
        session=state.session_id,
        space=runtime.site_id,
        policy=policy.name,
        budget=budget,
        order=order,
        home=home,
        roots=len(requested),
        shipped_bytes=shipped,
        prefetch_bytes=prefetched,
    )
    return applied


def request_data(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    home: str,
    pointers: Sequence[LongPointer],
) -> int:
    """Fetch ``pointers`` (plus eager closure) from their home space.

    This is the "callback" of the proposed method that Figure 5 counts:
    one request per faulted page per home space.

    The closure budget and traversal order are the requesting policy's
    per-request decisions; both travel in the request and each decision
    is recorded as a ``policy-decision`` trace event for offline
    conformance checking (SRPC3xx).
    """
    policy = state.policy
    budget = policy.request_budget(state)
    order = policy.closure_order
    payload = encode_request_payload(state, home, pointers, budget, order)
    runtime.clock.advance(runtime.cost_model.codec_cost(len(payload)))
    reply = runtime.session_send(
        state,
        home,
        MessageKind.DATA_REQUEST,
        payload,
        reply_kind=MessageKind.DATA_REPLY,
    )
    return apply_reply(
        runtime,
        state,
        home,
        reply,
        pointers,
        set(pointers),
        budget,
        order,
    )


def handle_data_request(
    runtime: "SmartRpcRuntime", message: Message
) -> bytes:
    """Home-space side: select the closure and ship it."""
    runtime.clock.advance(
        runtime.cost_model.codec_cost(len(message.payload))
    )
    decoder = XdrDecoder(message.payload)
    session_id = decoder.unpack_string()
    ground_site = decoder.unpack_string()
    budget = decoder.unpack_uint32()
    order_code = decoder.unpack_uint32()
    count = decoder.unpack_uint32()
    addresses = [decoder.unpack_uint64() for _ in range(count)]
    decoder.expect_done()
    state = runtime.ensure_smart_session(session_id, ground_site)
    state.note_participant(message.src)
    encoder = XdrEncoder()
    try:
        order = _ORDER_NAMES.get(order_code)
        if order is None:
            raise SmartRpcError(
                f"unknown closure order code {order_code!r}"
            )
        roots = []
        for address in addresses:
            allocation = runtime.heap.allocation_at(address)
            if allocation is None or allocation.address != address:
                raise SmartRpcError(
                    f"request for dead home data at {address:#x}"
                )
            roots.append(
                LongPointer(runtime.site_id, address, allocation.type_id)
            )
        # Budget and order are the requester's; hints are served from
        # the home's own policy (it knows its data's traversal shape).
        walker = ClosureWalker(
            runtime,
            state,
            budget,
            order=order,
            hints=runtime.policy.closure_hints,
        )
        items = walker.walk(roots)
        batch = encode_batch(runtime, state, items, walker.resolved)
    except SmartRpcError as exc:
        encoder.pack_uint32(_STATUS_ERROR)
        encoder.pack_string(str(exc))
    else:
        encoder.pack_uint32(_STATUS_OK)
        encoder.pack_opaque(batch)
    reply = encoder.getvalue()
    runtime.clock.advance(runtime.cost_model.codec_cost(len(reply)))
    return reply
