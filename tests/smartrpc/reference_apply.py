"""The generic batch loop, kept as an oracle.

This is ``repro.smartrpc.transfer.apply_batch`` as it was before a run
of flat items went through the loop generated for its type
(``transfer._compile_apply``): per item it read the ``FlatStep`` again —
a slot loop to pick the wire ``Struct``, the codec memo, a second slot
loop to swizzle, ``list(values)`` and a slice.  Production code no
longer contains it; ``tests/properties/test_wire_plan_props.py`` holds
the generated loops to it over cut and forged batches, exception type
and text alike, and to the per-field batch functions of
``tests/xdr/reference_codec.py`` over whole ones.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Set

from repro.memory.page import Protection
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import (
    HandlePool,
    LongPointer,
    read_pool_head,
)
from repro.smartrpc.transfer import (
    _LONG,
    _U32,
    _decode_union,
    _skip,
    _zero_address,
)
from repro.xdr.errors import XdrError
from repro.xdr.raw import WirePlan
from repro.xdr.stream import INTERN_MAX_BYTES, XdrDecoder, underflow


def generic_apply_batch(
    runtime,
    state,
    payload: bytes,
    overwrite: bool,
    demanded: Optional[Set[LongPointer]] = None,
) -> int:
    """``transfer.apply_batch`` as it was before its flat items were
    applied by loops generated per type: the same checks in the same
    order, one generic loop over the wire plan for every flat item."""
    view = payload
    end = len(view)
    image, pairs = runtime.pool_head
    pos = len(image)
    if not pos or view[:pos] != image:
        pairs, pos = read_pool_head(view, end)
        pairs = tuple(pairs)
        runtime.pool_head = (
            bytes(view[:pos]) if pos <= INTERN_MAX_BYTES else b"", pairs
        )
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
    cache = state.cache
    entry_for = cache.entry_for
    place = cache.place
    pages = cache.pages
    page_size = cache.page_size
    seal = cache.datum_seal
    new_pointer = tuple.__new__
    # A stream decoder and a handle pool only for a union item.
    decoder = pool = None
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
                _decode_union(runtime, state, decoder, pool, target, type_id)
                pos = decoder.tell()
            else:
                if flat.enums or flat.pads:
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
                            values[index] = state.swizzler.swizzle(
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
                    # Original data, or a span.
                    runtime.codec.store(flat, target, native)
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
                        # Names the misfit.
                        runtime.codec.store(flat, target, native)
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
