"""Transparent remote memory allocation and release (paper §3.5).

``extended_malloc(space, type)`` allocates data *in another address
space* and returns a pointer usable immediately in the local space;
``extended_free(p)`` releases data "whose original location is not in
the address space in which it is issued".

Issuing one remote message per operation "would degrade the runtime
performance terribly, considering that remote allocation and release of
hundreds of data sets may be requested consecutively", so the runtime
**batches** the requests and flushes the batch when thread activity
moves to another address space — a single message per home space can
carry any number of allocations and releases.

Until the batch flushes, the new datum's long pointer carries a
*provisional* home address; the flush returns the real addresses and
the data allocation table is repointed in place (local placeholders do
not move, so ordinary pointers already handed to the program stay
valid).

The flush is a session exchange like any other: it goes through
:meth:`~repro.smartrpc.runtime.SmartRpcRuntime.session_send`, so a dead
home aborts the session with a typed ``SessionAbortedError``
(``peer-unreachable:<home>``) and rolls back what it held.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.memory.heap import HeapError
from repro.simnet.message import Message, MessageKind
from repro.smartrpc.alloc_table import AllocEntry
from repro.smartrpc.errors import SmartRpcError, SwizzleError
from repro.smartrpc.long_pointer import PROVISIONAL_BASE, LongPointer
from repro.xdr.stream import XdrDecoder, XdrEncoder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

_STATUS_OK = 0
_STATUS_ERROR = 1

# Process-wide so provisional addresses never collide, whichever
# runtime hands them out.
_provisional_addresses = itertools.count(PROVISIONAL_BASE)


def extended_malloc(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    space_id: str,
    type_id: str,
) -> int:
    """Allocate one ``type_id`` datum in ``space_id``; return a local
    (already swizzled) pointer to it."""
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.malloc_op)
    if space_id == runtime.site_id:
        return runtime.heap.malloc(
            runtime.resolver.resolve(type_id).sizeof(runtime.arch), type_id
        )
    spec = runtime.resolver.resolve(type_id)
    size = spec.sizeof(runtime.arch)
    provisional = LongPointer(
        space_id, next(_provisional_addresses), type_id
    )
    entry = state.cache.allocate_fresh(provisional, size)
    state.pending_allocs.append(entry)
    runtime.stats.remote_mallocs += 1
    return entry.local_address


def extended_free(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    pointer: int,
) -> None:
    """Release the data referenced by ``pointer`` (local or remote)."""
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.malloc_op)
    entry = state.cache.entry_containing(pointer)
    if entry is not None:
        if pointer != entry.local_address:
            raise SwizzleError(
                f"interior pointer {pointer:#x} passed to extended_free"
            )
        if entry.pointer.is_provisional:
            # The home never heard of it: cancel the pending allocation.
            state.pending_allocs.remove(entry)
        else:
            state.pending_frees.append(entry.pointer)
        state.cache.release_entry(entry)
        state.relayed_dirty.pop(entry, None)
        runtime.stats.remote_frees += 1
        return
    if runtime.heap.allocation_based_at(pointer) is None:
        raise SwizzleError(
            f"extended_free of {pointer:#x}: not a live allocation or "
            "cache entry"
        )
    runtime.heap.free(pointer)


def flush(runtime: "SmartRpcRuntime", state: "SmartSessionState") -> None:
    """Send the batched operations, one message per home space.

    Called whenever thread activity is about to move to another address
    space and at session end, *before* anything is unswizzled — so no
    provisional address ever reaches the wire.
    """
    if not state.pending_allocs and not state.pending_frees:
        return
    allocs_by_home: Dict[str, List[AllocEntry]] = {}
    for entry in state.pending_allocs:
        allocs_by_home.setdefault(entry.pointer.space_id, []).append(entry)
    frees_by_home: Dict[str, List[LongPointer]] = {}
    for pointer in state.pending_frees:
        frees_by_home.setdefault(pointer.space_id, []).append(pointer)
    state.pending_allocs = []
    state.pending_frees = []
    for home in sorted(set(allocs_by_home) | set(frees_by_home)):
        _flush_one_home(
            runtime,
            state,
            home,
            allocs_by_home.get(home, []),
            frees_by_home.get(home, []),
        )
    runtime.stats.batch_flushes += 1


def _flush_one_home(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    home: str,
    allocs: List[AllocEntry],
    frees: List[LongPointer],
) -> None:
    encoder = XdrEncoder()
    encoder.pack_string(state.session_id)
    encoder.pack_string(state.ground_site)
    encoder.pack_uint32(len(allocs))
    for entry in allocs:
        encoder.pack_uint64(entry.pointer.address)
        encoder.pack_string(entry.pointer.type_id)
    encoder.pack_uint32(len(frees))
    for pointer in frees:
        encoder.pack_uint64(pointer.address)
    payload = encoder.getvalue()
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.codec_cost(len(payload)))
    reply = runtime.session_send(
        state,
        home,
        MessageKind.MEMORY_BATCH,
        payload,
        reply_kind=MessageKind.MEMORY_BATCH_REPLY,
    )
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.codec_cost(len(reply)))
    decoder = XdrDecoder(reply)
    status = decoder.unpack_uint32()
    if status == _STATUS_ERROR:
        raise SmartRpcError(
            f"memory batch to {home!r} failed: {decoder.unpack_string()}"
        )
    count = decoder.unpack_uint32()
    if count != len(allocs):
        raise SmartRpcError(
            f"memory batch reply names {count} allocations, "
            f"expected {len(allocs)}"
        )
    assigned: List[Tuple[AllocEntry, int]] = []
    for entry in allocs:
        provisional = decoder.unpack_uint64()
        real = decoder.unpack_uint64()
        if provisional != entry.pointer.address:
            raise SmartRpcError(
                "memory batch reply out of order: expected "
                f"{entry.pointer.address:#x}, got {provisional:#x}"
            )
        assigned.append((entry, real))
    decoder.expect_done()
    for entry, real in assigned:
        state.cache.repoint(entry, entry.pointer.with_address(real))


def handle_memory_batch(
    runtime: "SmartRpcRuntime", message: Message
) -> bytes:
    """Home-space side: perform the batched allocations and releases."""
    if runtime.models_time:
        runtime.clock.advance(
            runtime.cost_model.codec_cost(len(message.payload))
        )
    decoder = XdrDecoder(message.payload)
    session_id = decoder.unpack_string()
    ground_site = decoder.unpack_string()
    alloc_count = decoder.unpack_uint32()
    requests: List[Tuple[int, str]] = []
    for _ in range(alloc_count):
        provisional = decoder.unpack_uint64()
        type_id = decoder.unpack_string()
        requests.append((provisional, type_id))
    free_count = decoder.unpack_uint32()
    free_addresses = [decoder.unpack_uint64() for _ in range(free_count)]
    decoder.expect_done()
    runtime.ensure_smart_session(session_id, ground_site).note_participant(
        message.src
    )
    encoder = XdrEncoder()
    try:
        pairs: List[Tuple[int, int]] = []
        for provisional, type_id in requests:
            spec = runtime.resolver.resolve(type_id)
            if runtime.models_time:
                runtime.clock.advance(runtime.cost_model.malloc_op)
            address = runtime.heap.malloc(
                spec.sizeof(runtime.arch), type_id
            )
            pairs.append((provisional, address))
        for address in free_addresses:
            if runtime.models_time:
                runtime.clock.advance(runtime.cost_model.malloc_op)
            runtime.heap.free(address)
    except (HeapError, SmartRpcError) as exc:
        encoder.pack_uint32(_STATUS_ERROR)
        encoder.pack_string(str(exc))
    else:
        encoder.pack_uint32(_STATUS_OK)
        encoder.pack_uint32(len(pairs))
        for provisional, address in pairs:
            encoder.pack_uint64(provisional)
            encoder.pack_uint64(address)
    reply = encoder.getvalue()
    if runtime.models_time:
        runtime.clock.advance(runtime.cost_model.codec_cost(len(reply)))
    return reply
