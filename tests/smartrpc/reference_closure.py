"""The two-pass closure walk and batch encode, kept as an oracle.

This is how a home served a DATA_REQUEST before the walk and the
encode became one loop (``repro.smartrpc.closure``): a walk that
selects the closure as a list of items, resolving every child pointer
through the heap into a ``local address -> LongPointer`` memo, then an
encoder that goes over those items again, reads each datum, translates
its pointer slots through the handed-over memo and packs it with the
flat codec (a union item through the hook codec).  Production code no
longer contains it; the differential tests compare the fused batch
against it byte for byte and error text for error text.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import (
    PROVISIONAL_BASE,
    HandlePool,
    LongPointer,
    encode_long_pointer_pooled,
)
from repro.xdr.errors import XdrError
from repro.xdr.raw import Follow, WirePlan
from repro.xdr.stream import XdrEncoder
from tests.xdr.reference_codec import Item

_U32 = struct.Struct(">I")


class ReferenceWalker:
    """The closure walk as it was: items first, no encoding."""

    def __init__(self, runtime, state, budget_bytes, order, hints) -> None:
        if order not in (BREADTH_FIRST, DEPTH_FIRST):
            raise SmartRpcError(f"unknown closure order {order!r}")
        if budget_bytes < 0:
            raise SmartRpcError(f"bad closure budget {budget_bytes!r}")
        self.runtime = runtime
        self.state = state
        self.budget_bytes = budget_bytes
        self.order = order
        self.hints = hints
        self.resolved: Dict[int, LongPointer] = {}
        self._follow: Dict[str, Optional[Follow]] = {}

    def walk(self, addresses: Sequence[int]) -> List[Item]:
        site_id = self.runtime.site_id
        roots = []
        for address in addresses:
            allocation = self.runtime.heap.allocation_based_at(address)
            if allocation is None:
                raise SmartRpcError(
                    f"request for dead home data at {address:#x}"
                )
            pointer = LongPointer(site_id, address, allocation.type_id)
            roots.append(Item(pointer, address))
        return self._expand(roots)

    def _expand(self, roots: List[Item]) -> List[Item]:
        items: List[Item] = []
        if self.order == BREADTH_FIRST:
            pending = items
            admit = items.append
        else:
            stack: List[Item] = []
            pending = _popping(stack, items)
            admit = stack.append
        seen: Set[LongPointer] = set()
        total = 0
        for root in roots:
            if root.pointer in seen:
                continue
            seen.add(root.pointer)
            admit(root)
            total += self._plan(root.pointer.type_id).size
        budget = self.budget_bytes
        budget_left = total < budget
        for item in pending:
            if not budget_left:
                continue
            read = self._pointers_to_follow(item.pointer.type_id)
            if read is None:
                continue
            codec, start, slots = read
            values = self.runtime.space.unpack_raw(
                codec, item.local_address + start
            )
            for index in slots:
                value = values[index]
                if not value:
                    continue
                if value in self.resolved:
                    child = self.resolved[value]
                else:
                    allocation = self.runtime.heap.allocation_based_at(value)
                    if allocation is None:
                        continue  # a cached third-space datum
                    child = self.resolved[value] = LongPointer(
                        self.runtime.site_id, value, allocation.type_id
                    )
                if child in seen:
                    continue
                size = self._plan(child.type_id).size
                if total + size > budget:
                    budget_left = False
                    break
                seen.add(child)
                total += size
                admit(Item(child, value))
        return items

    def _plan(self, type_id: str) -> WirePlan:
        return self.runtime.wire_plan(type_id)

    def _pointers_to_follow(self, type_id: str) -> Optional[Follow]:
        if type_id not in self._follow:
            plan = self._plan(type_id)
            offsets = None
            if self.hints is not None:
                offsets = self.hints.pointer_offsets(
                    type_id, plan.spec, self.runtime.arch
                )
            if offsets is None:
                offsets = plan.pointer_offsets
            self._follow[type_id] = plan.follow(tuple(offsets))
        return self._follow[type_id]


def _popping(stack: List[Item], items: List[Item]):
    while stack:
        item = stack.pop()
        items.append(item)
        yield item


def two_pass_encode_batch(
    runtime,
    state,
    items: Sequence[Item],
    resolved: Optional[Dict[int, LongPointer]] = None,
) -> bytes:
    """The batch encoder as it was, reading every datum again."""
    if resolved is None:
        resolved = {}
    pool = HandlePool()
    unswizzle = state.swizzler.unswizzle
    chunks: List[bytes] = [b"", _U32.pack(len(items))]
    for item in items:
        space_id, address, type_id = item.pointer
        plan = runtime.wire_plan(type_id)
        flat = plan.flat
        if flat is None:
            chunks.append(
                _encode_union(runtime, state, item, plan, pool, resolved)
            )
            continue
        if address >= PROVISIONAL_BASE:
            raise XdrError(
                f"provisional {item.pointer!r} must never reach the wire"
            )
        handle = pool.intern(space_id, type_id)
        values = list(
            runtime.space.unpack_raw(
                flat.native, item.local_address + flat.offset
            )
        )
        key = 1
        for bit, index in flat.slot_bits:
            value = values[index]
            if value:
                pointer = resolved.get(value) or _translate(
                    unswizzle, resolved, value
                )
                values[index] = pool.intern(pointer[0], pointer[2])
                values[index + 1] = pointer[1]
                key |= bit
        if flat.enums:
            flat.check_enums(values)
        chunks.append(flat.wire(key).pack(handle, address, *values))
    chunks[0] = pool.head()
    return b"".join(chunks)


def reference_data_reply_batch(
    runtime, state, budget, order, hints, addresses
) -> Tuple[List[Item], bytes]:
    """A DATA_REQUEST served in two passes: the items and the batch."""
    walker = ReferenceWalker(runtime, state, budget, order, hints)
    items = walker.walk(addresses)
    return items, two_pass_encode_batch(
        runtime, state, items, walker.resolved
    )


def _translate(unswizzle, resolved, value: int) -> LongPointer:
    pointer = unswizzle(value)
    if pointer.is_provisional:
        raise SmartRpcError(
            f"provisional {pointer!r} leaked onto the wire; the "
            "memory batch must flush before any transfer"
        )
    resolved[value] = pointer
    return pointer


def _encode_union(runtime, state, item, plan, pool, resolved) -> bytes:
    body = XdrEncoder()
    unswizzle = state.swizzler.unswizzle

    def pointer_out(value: int, _target: str) -> None:
        pointer = None
        if value:
            pointer = resolved.get(value) or _translate(
                unswizzle, resolved, value
            )
        encode_long_pointer_pooled(body, pointer, pool)

    encode_long_pointer_pooled(body, item.pointer, pool)
    runtime.codec.encode(item.local_address, plan.spec, body, pointer_out)
    return body.getvalue()
