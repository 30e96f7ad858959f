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

import functools
import struct
from typing import TYPE_CHECKING, List, Optional, Sequence, Set

from repro.memory.page import Protection
from repro.simnet.message import Message, MessageKind
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST, ClosureWalker
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import (
    HandlePool,
    LongPointer,
    decode_long_pointer_pooled,
    read_pool_head,
)
from repro.xdr.errors import XdrError
from repro.xdr.raw import LONG_SLOT, WirePlan
from repro.xdr.stream import (
    IMAGES,
    XdrDecoder,
    read_string,
    string_image,
    underflow,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.alloc_table import AllocEntry
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

_STATUS_OK = 0
_STATUS_ERROR = 1

# The requester's traversal order travels in the DATA_REQUEST so the
# home space walks the closure the way the requesting policy wants.
_ORDER_CODES = {BREADTH_FIRST: 0, DEPTH_FIRST: 1}
_ORDER_NAMES = {code: name for name, code in _ORDER_CODES.items()}

#: One non-NULL pooled long pointer: pool handle + home address.
_LONG = struct.Struct(">" + LONG_SLOT)

_U32 = struct.Struct(">I")
#: A DATA_REPLY's head: status, then the batch's opaque length word.
_REPLY_HEAD = struct.Struct(">II")
_PADS = (b"", bytes(3), bytes(2), bytes(1))


# -- batch encoding -----------------------------------------------------------


def encode_batch(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    rows: Sequence["AllocEntry"],
) -> bytes:
    """Encode table rows into one batch (no time charged here).

    The coherency protocol's batches — a piggyback, a write-back — are
    the rows of the modified data set as they are: the closure walk's
    loop packs them (:meth:`ClosureWalker.pack`) following nothing, so
    one packer serves every batch.  A row is anything with a
    ``pointer`` and a ``local_address``.
    """
    return ClosureWalker(runtime, state, 0).pack(rows)


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

    One cursor reads the batch, its head included: the pool table
    (:func:`~repro.smartrpc.long_pointer.read_pool_head`, each string
    probed once in the intern table), the item count, then each flat
    item as one ``Struct`` unpack, chosen by peeking at its slot
    handles.  Every read is bounds checked first, so a cut batch raises
    the decoder's underflow error, and bytes past the last item are an
    :class:`XdrError`.
    Every long pointer of an item is checked (handle known, address
    nonzero) before any row is placed; the pointers are then built
    without :class:`LongPointer`'s own check.  One pass per item does
    all of a datum's work: its own row (a lookup in the table's
    long-pointer dict, keyed by a plain tuple — a :class:`LongPointer`
    is built only for a row that is new), the swizzle of each pointer
    slot (the same lookup; a miss is one
    :meth:`~repro.smartrpc.cache.CacheManager.place`, which builds the
    row and any fresh page), the pack straight into the placeholder
    page's buffer, residency and the page release it may complete, the
    shipped flags and the per-datum seal.  A union item goes through
    a stream decoder and a handle pool, built at the batch's first
    union item, the hook-driven codec, and swizzles through the
    session's swizzler.  The counters and both ledgers move once, at
    the end.
    """
    view = payload
    end = len(view)
    pairs, pos = read_pool_head(view, end)
    known = len(pairs)  # a handle above this names no pair
    if pos + 4 > end:
        raise underflow(4, end - pos)
    peek = _U32.unpack_from
    count = peek(view, pos)[0]
    pos += 4
    # Per pool handle, filled at the handle's first item or first new
    # row so a cold resolver queries the name server where it always
    # did: the type's plan, and the alignment of a placeholder for it.
    plans: List[Optional[WirePlan]] = [None] * known
    aligns: List[int] = [0] * known
    wire_plan_of = runtime.wire_plan
    site_id = runtime.site_id
    allocation_based_at = runtime.heap.allocation_based_at
    space = runtime.space
    store = runtime.codec.store
    cache = state.cache
    entry_for = cache.table.entry_for
    place = cache.place
    pages = cache.pages
    page_size = cache.page_size
    seal = cache.datum_seal
    swizzle = state.swizzler.swizzle
    new_pointer = tuple.__new__
    # A stream decoder and a handle pool only for a union item.
    decoder = pool = None

    def pointer_in(_target: str) -> int:
        return swizzle(decode_long_pointer_pooled(decoder, pool))

    applied = 0
    untouched = 0  # entries newly flagged shipped, none touched yet
    shipped = [0, 0]  # bytes of demanded roots, bytes of prefetch
    last = -1  # the previous item's handle: runs of one type are the rule
    # Pages the batch completes turn READ in one pass at its end —
    # should an item raise, those completed before it still do.
    held: List[int] = []
    try:
        for _ in range(count):
            if pos + 4 > end:
                raise underflow(4, end - pos)
            handle = peek(view, pos)[0]
            if handle != last:
                if not handle:
                    raise SmartRpcError("batch item with NULL long pointer")
                if handle > known:
                    raise XdrError(f"bad handle-pool handle {handle!r}")
                space_id, type_id = pairs[handle - 1]
                plan = plans[handle - 1]
                if plan is None:
                    plan = plans[handle - 1] = wire_plan_of(type_id)
                    align = plan.alignment
                    aligns[handle - 1] = align if align < 8 else 8
                flat = plan.flat
                home = space_id == site_id
                last = handle
            if flat is None:
                codec = _LONG  # the header; the decoder reads the rest
            else:
                # The handle words ahead say which slots carry a long
                # pointer; each one pushes the next 8 bytes further.
                shape = 1
                ahead = pos + _LONG.size
                for bit, offset in flat.slot_wire:
                    at = ahead + offset
                    if at + 4 > end:
                        raise underflow(at + 4 - pos, end - pos)
                    if peek(view, at)[0]:
                        shape |= bit
                        ahead += 8
                codecs = flat.codecs
                codec = codecs[shape] if shape in codecs else flat.wire(shape)
            if pos + codec.size > end:
                raise underflow(codec.size, end - pos)
            values = codec.unpack_from(view, pos)
            pos += codec.size
            address = values[1]
            if not address:
                raise _zero_address()
            if flat is not None:
                for _bit, index in flat.slot_bits:
                    slot = values[index + 2]
                    if slot:
                        if slot > known:
                            raise XdrError(f"bad handle-pool handle {slot!r}")
                        if not values[index + 3]:
                            raise _zero_address()
            if home:
                # We are the home: the batch updates original data,
                # named by its allocation's base.
                if allocation_based_at(address) is None:
                    raise SmartRpcError(
                        "batch updates dead home data "
                        f"{LongPointer(space_id, address, type_id)!r}"
                    )
                entry = None
                target = address
            else:
                key = (space_id, address, type_id)
                entry = entry_for(key)
                if entry is None:
                    entry = place(
                        new_pointer(LongPointer, key),
                        plan.size,
                        aligns[handle - 1],
                    )
                elif entry.resident and not overwrite:
                    if flat is None:
                        if decoder is None:
                            decoder = XdrDecoder(view)
                            pool = HandlePool(pairs)
                        decoder.seek(pos)
                        _skip(decoder, plan.steps, pool)
                        pos = decoder.tell()
                    runtime.stats.duplicate_entries += 1
                    if demanded is not None:
                        # The closure overshot into data this space
                        # holds: bytes that bought nothing score as
                        # untouchable prefetch.
                        shipped[1] += entry.size
                    continue
                target = entry.local_address
            if flat is None:
                if decoder is None:
                    decoder = XdrDecoder(view)
                    pool = HandlePool(pairs)
                decoder.seek(pos)
                runtime.codec.decode(
                    decoder,
                    target,
                    runtime.resolver.resolve(type_id),
                    pointer_in,
                )
                pos = decoder.tell()
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
                        slot_space, slot_type = pairs[slot - 1]
                        slot_key = (slot_space, values[index + 1], slot_type)
                        if slot_space == site_id:
                            values[index] = swizzle(
                                new_pointer(LongPointer, slot_key)
                            )
                        else:
                            row = entry_for(slot_key)
                            if row is None:
                                slot_plan = plans[slot - 1]
                                if slot_plan is None:
                                    slot_plan = plans[slot - 1] = (
                                        wire_plan_of(slot_type)
                                    )
                                    align = slot_plan.alignment
                                    aligns[slot - 1] = (
                                        align if align < 8 else 8
                                    )
                                row = place(
                                    new_pointer(LongPointer, slot_key),
                                    slot_plan.size,
                                    aligns[slot - 1],
                                )
                            values[index] = row.local_address
                        values[index + 1] = b""
                native = values[2:]
                if entry is None or entry.offset + entry.size > page_size:
                    store(flat, target, native)  # original data, or a span
                else:
                    # Straight into the placeholder's page buffer, backed
                    # only as far as written: growing rebinds it, which
                    # moves the space's generation (AddressSpace._grow).
                    page = pages[entry.page_number]
                    buffer = page.data
                    at = entry.offset + flat.offset
                    stop = at + flat.native.size
                    if not buffer:  # a fresh placeholder page
                        page.data = buffer = bytearray(stop)
                        space.generation += 1
                    elif stop > len(buffer):
                        grown = bytearray(stop)
                        grown[: len(buffer)] = buffer
                        page.data = buffer = grown
                        space.generation += 1
                    try:
                        flat.native.pack_into(buffer, at, *native)
                    except struct.error:
                        store(flat, target, native)  # names the misfit
            applied += 1
            if entry is None:
                continue
            if not entry.resident:
                if entry.offset + entry.size > page_size:
                    cache.mark_resident(entry, held)  # a span: its pages
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
        if pos != end:
            raise XdrError(f"{end - pos} trailing bytes in XDR stream")
        # Seal the batch: the datum seal does it, where there is one.
        (seal or cache.finish_batch)()
    finally:
        if held:
            runtime.space.protect_pages(held, Protection.READ)
        # Sums are order-free, so the counters move once per batch —
        # by what did land, should an item have raised.
        stats = runtime.stats
        stats.entries_transferred += applied
        cache.untouched_shipped += untouched
        if demanded is not None:
            demanded_bytes, prefetched = shipped
            for ledger in (state.transfer_stats, stats.transfer_ledger):
                ledger.closure_bytes_shipped += demanded_bytes + prefetched
                ledger.prefetch_bytes_shipped += prefetched
    return applied


def _zero_address() -> XdrError:
    return XdrError("long pointer address must be positive, got 0")


def _skip(decoder: XdrDecoder, steps: Sequence, pool: HandlePool) -> None:
    """Read past a resident union item's value, checking that every
    long pointer in it is well formed."""
    for step in steps:
        if step.arms is not None:
            _skip(decoder, step.arm(decoder.unpack_int32()).steps, pool)
            continue
        values = decoder.unpack_struct(step.sniff(decoder.peek_uint32, 0))
        for _bit, index in step.slot_bits:
            if values[index]:
                space_id, type_id = pool.lookup(values[index])
                LongPointer(space_id, values[index + 1], type_id)


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
    the home's own typed heap, so neither travels.  Layout: session
    id, ground site, then budget, order code, root count and the roots'
    addresses in one ``Struct``.
    """
    addresses = []
    for pointer in pointers:
        if pointer[0] != home:
            raise SmartRpcError(
                f"{pointer!r} requested from {home!r}, not its home"
            )
        addresses.append(pointer[1])
    return b"".join((
        IMAGES.get(state.session_id) or string_image(state.session_id),
        IMAGES.get(state.ground_site) or string_image(state.ground_site),
        _request_tail(len(addresses)).pack(
            budget, _ORDER_CODES[order], len(addresses), *addresses
        ),
    ))


@functools.lru_cache(maxsize=64)
def _request_tail(count: int) -> struct.Struct:
    """A DATA_REQUEST's fixed words for ``count`` roots."""
    return struct.Struct(f">III{count}Q")


def decode_request_payload(payload: bytes) -> tuple:
    """``(session id, ground site, budget, order code, addresses)`` of
    one DATA_REQUEST payload.

    One cursor pass, as :func:`apply_batch` reads a batch: each string
    goes through :func:`~repro.xdr.stream.read_string` (its image
    sliced whole and probed once in the intern table), and the tail is
    one ``Struct``.  A cut payload is the decoder's underflow error,
    and bytes past the tail are an :class:`XdrError`.
    """
    size = len(payload)
    session_id, pos = read_string(payload, 0, size)
    ground_site, pos = read_string(payload, pos, size)
    tail = _request_tail(max(size - pos - 12, 0) // 8)
    if pos + tail.size > size:
        raise underflow(tail.size, size - pos)
    if pos + tail.size < size:
        raise XdrError(
            f"{size - pos - tail.size} trailing bytes in XDR stream"
        )
    budget, order_code, count, *addresses = tail.unpack_from(payload, pos)
    if count != len(addresses):
        raise XdrError(
            f"DATA_REQUEST names {count} roots and carries "
            f"{len(addresses)}"
        )
    return session_id, ground_site, budget, order_code, addresses


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
    size = len(reply)
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.codec_cost(size))
    # Status word, then the batch (or the error text) as one opaque.
    view = memoryview(reply)
    if size < _REPLY_HEAD.size:
        raise XdrError(f"DATA_REPLY of {size} bytes has no head")
    status, length = _REPLY_HEAD.unpack_from(view)
    if status == _STATUS_ERROR:
        decoder = XdrDecoder(view)
        decoder.unpack_uint32()
        raise SmartRpcError(
            f"data request to {home!r} failed: {decoder.unpack_string()}"
        )
    end = _REPLY_HEAD.size + length
    if size != end + (-length & 3):
        raise XdrError(
            f"DATA_REPLY of {size} bytes for a {length}-byte batch"
        )
    if end != size and any(view[end:]):
        raise XdrError(f"nonzero XDR padding {bytes(view[end:])!r}")
    # The batch is decoded in place (apply_batch materialises every
    # item into the heap): no copy of the reply body first.
    batch = view[_REPLY_HEAD.size : end]
    ledger = state.transfer_stats
    shipped_before = ledger.closure_bytes_shipped
    prefetch_before = ledger.prefetch_bytes_shipped
    applied = apply_batch(
        runtime, state, batch, overwrite=False, demanded=demanded
    )
    if runtime.stats.tracing:
        shipped = ledger.closure_bytes_shipped - shipped_before
        prefetched = ledger.prefetch_bytes_shipped - prefetch_before
        policy = state.policy
        runtime.trace_event(
            "policy-decision",
            f"{runtime.site_id}: request to {home} under policy "
            f"{policy.name!r} (budget {budget}, {order}; shipped "
            f"{shipped} B, prefetched {prefetched} B)",
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
    if runtime.models_time:
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
    payload = message.payload
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.codec_cost(len(payload)))
    session_id, ground_site, budget, order_code, addresses = (
        decode_request_payload(payload)
    )
    state = runtime.ensure_smart_session(session_id, ground_site)
    state.note_participant(message.src)
    try:
        order = _ORDER_NAMES.get(order_code)
        if order is None:
            raise SmartRpcError(
                f"unknown closure order code {order_code!r}"
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
        walker.walk(addresses)
        batch = walker.batch
    except (SmartRpcError, XdrError) as exc:
        # A datum the home cannot encode fails the request, not the
        # session: the requester raises the text.
        reply = _U32.pack(_STATUS_ERROR) + string_image(str(exc))
    else:
        length = len(batch)
        reply = b"".join(
            (_REPLY_HEAD.pack(_STATUS_OK, length), batch, _PADS[length & 3])
        )
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.codec_cost(len(reply)))
    return reply
