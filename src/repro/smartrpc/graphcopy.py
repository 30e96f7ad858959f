"""Deep-copy marshalling of pointer closures (the eager baseline).

This is what ``rpcgen`` generates for recursive data structures: the
entire object graph reachable from a pointer argument is serialised
with the argument and materialised into the callee's heap.  Unlike
textbook ``rpcgen`` output the encoding is iterative (a worklist, not
recursion) and handles shared structure and cycles by interning nodes
into per-argument indices — a 60,000-node list would otherwise
overflow the encoder's stack.

Wire format::

    root reference | node count | node values in discovery order

    reference := bool present | uint32 node index
    node value := canonical fields; pointer fields are references

Types never travel: both sides derive every node's type statically
from the argument's declared target type and the pointer fields'
target type ids, exactly as compiled stubs would.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.rpc.errors import MarshalError
from repro.xdr.stream import XdrDecoder, XdrEncoder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rpc.runtime import RpcRuntime


def encode_graph(
    runtime: "RpcRuntime",
    encoder: XdrEncoder,
    root: int,
    root_type_id: str,
) -> int:
    """Append the deep copy of the graph rooted at ``root``.

    Returns the number of nodes shipped.
    """
    indices: Dict[int, int] = {}
    order: List[Tuple[int, str]] = []
    queue: deque = deque()

    def reference(pointer: int, type_id: str) -> Optional[int]:
        if pointer == 0:
            return None
        index = indices.get(pointer)
        if index is None:
            allocation = runtime.heap.allocation_based_at(pointer)
            if allocation is None:
                raise MarshalError(
                    f"eager RPC cannot copy {pointer:#x}: not a live "
                    "allocation base in the caller's heap"
                )
            index = len(order)
            indices[pointer] = index
            order.append((pointer, allocation.type_id))
            queue.append((pointer, allocation.type_id))
        return index

    body = XdrEncoder()

    def pointer_out(pointer: int, type_id: str) -> None:
        index = reference(pointer, type_id)
        if index is None:
            body.pack_bool(False)
        else:
            body.pack_bool(True)
            body.pack_uint32(index)

    root_index = reference(root, root_type_id)
    while queue:
        address, type_id = queue.popleft()
        spec = runtime.resolver.resolve(type_id)
        runtime.codec.encode(address, spec, body, pointer_out)

    if root_index is None:
        encoder.pack_bool(False)
    else:
        encoder.pack_bool(True)
        encoder.pack_uint32(root_index)
    encoder.pack_uint32(len(order))
    encoder.pack_fixed_opaque(body.getvalue())
    return len(order)


def decode_graph(
    runtime: "RpcRuntime",
    decoder: XdrDecoder,
    root_type_id: str,
) -> int:
    """Materialise a deep copy into the local heap; returns root address.

    Node ``i``'s type is pinned by the first reference reaching it (the
    root's declared type, or a pointer field's target type id); the
    value bytes then decode straight into a fresh typed allocation.
    """
    has_root = decoder.unpack_bool()
    root_index = decoder.unpack_uint32() if has_root else None
    count = decoder.unpack_uint32()
    addresses: List[Optional[int]] = [None] * count
    types: List[Optional[str]] = [None] * count

    def materialise(index: int, type_id: str) -> int:
        if index >= count:
            raise MarshalError(
                f"eager graph reference to node {index} of {count}"
            )
        if addresses[index] is None:
            types[index] = type_id
            spec = runtime.resolver.resolve(type_id)
            if runtime.models_time:
                runtime.clock.advance(runtime.cost_model.malloc_op)
            addresses[index] = runtime.heap.malloc(
                spec.sizeof(runtime.arch), type_id
            )
        elif types[index] != type_id:
            raise MarshalError(
                f"eager graph node {index} referenced as both "
                f"{types[index]!r} and {type_id!r}"
            )
        return addresses[index]

    def pointer_in(type_id: str) -> int:
        if not decoder.unpack_bool():
            return 0
        return materialise(decoder.unpack_uint32(), type_id)

    if root_index is None:
        # Nothing follows an absent root but an empty node list.
        if count != 0:
            raise MarshalError("eager graph with NULL root but nodes")
        return 0
    root_address = materialise(root_index, root_type_id)
    for index in range(count):
        if addresses[index] is None:
            raise MarshalError(f"eager graph node {index} unreachable")
        spec = runtime.resolver.resolve(types[index])
        runtime.codec.decode(decoder, addresses[index], spec, pointer_in)
    runtime.stats.entries_transferred += count
    return root_address
