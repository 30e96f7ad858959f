"""Bounded transitive-closure traversal for eager transfer (paper §3.3).

When a home space serves a data request it does not send just the
requested data: it traverses the transitive closure of the requested
pointers breadth-first and includes everything it reaches until the
*closure size* budget (bytes) is exhausted.  Closure size 0 degenerates
to the fully lazy behaviour; an unbounded budget degenerates to the
fully eager one — exactly the spectrum Figure 6 sweeps.

The traversal follows only pointers whose targets live in this space's
own heap.  A pointer into data this space merely *caches* from a third
space is emitted as a long pointer for the requester to resolve against
that third space, but its data cannot be served from here.

The walk and the batch encode are one pass: each datum is packed into
the batch (layout in :mod:`repro.smartrpc.transfer`) as the walk emits
it, so no per-datum object outlives its datum.  A coherency batch
(:func:`repro.smartrpc.transfer.encode_batch`) goes through the same
loop as a walk that follows nothing.
"""

from __future__ import annotations

import struct
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.alloc_table import AllocEntry
    from repro.smartrpc.hints import ClosureHints
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

BREADTH_FIRST = "bfs"
DEPTH_FIRST = "dfs"

_U32 = struct.Struct(">I")


class ClosureWalker:
    """Walks a home space's heap from a set of requested pointers and
    packs what it reaches into one batch.

    One walker serves one request; :attr:`batch` holds the batch once
    :meth:`walk` (or :meth:`pack`) has run.
    """

    def __init__(
        self,
        runtime: "SmartRpcRuntime",
        state: "SmartSessionState",
        budget_bytes: int,
        order: str = BREADTH_FIRST,
        hints: Optional["ClosureHints"] = None,
    ) -> None:
        if order not in (BREADTH_FIRST, DEPTH_FIRST):
            raise SmartRpcError(f"unknown closure order {order!r}")
        if budget_bytes < 0:
            raise SmartRpcError(f"bad closure budget {budget_bytes!r}")
        self.runtime = runtime
        self.state = state
        self.budget_bytes = budget_bytes
        self.order = order
        # Default to the serving runtime's policy hints, so a walker
        # constructed bare behaves like the data plane's.
        if hints is None:
            hints = runtime.policy.closure_hints
        self.hints = hints
        #: The canonical batch of everything emitted.
        self.batch = b""
        # Per type id: the type's plan (the runtime's own memo), and
        # (worked out when the first datum of the type is emitted) how
        # its pointer words are followed.  Unhinted, that depends on
        # the plan alone, so the runtime keeps it; hints can still
        # change, so a hinted walk works it out afresh.
        self._plans: Dict[str, WirePlan] = runtime.wire_plans
        self._follow: Dict[str, Tuple[bool, Optional[Follow]]] = (
            runtime.closure_follows if hints is None else {}
        )

    def walk(self, addresses: Sequence[int]) -> List[int]:
        """Select data to transfer: all roots, then closure to budget.

        The roots are a DATA_REQUEST's, named by address.  Each is
        looked up in the heap once, which both vouches for it and gives
        its type; an address that is not the base of a live allocation
        fails the request (a ``SmartRpcError``).  Requested roots are
        always included (the requester faulted on them); traversal
        beyond the roots stops once the total size of selected data
        exceeds the budget.  Admission happens when a child is
        discovered; emission order is traversal order (level by level
        for BFS, branch by branch for DFS).  Returns the home address
        of every datum emitted, in batch order.
        """
        allocation_based_at = self.runtime.heap.allocation_based_at
        plans = self._plans
        # Home address -> type id of every datum admitted.
        named: Dict[int, object] = {}
        roots = []
        total = 0
        for address in addresses:
            allocation = allocation_based_at(address)
            if allocation is None:
                raise SmartRpcError(
                    f"request for dead home data at {address:#x}"
                )
            type_id = allocation.type_id
            plan = plans[type_id] if type_id in plans else self._plan(type_id)
            if address not in named:
                named[address] = type_id
                roots.append(address)
                total += plan.size
        return self._emit(roots, named, total < self.budget_bytes, total)

    def pack(self, rows: Iterable["AllocEntry"]) -> bytes:
        """The batch of ``rows`` as they are, following nothing.

        A row names a datum by its long pointer (``pointer``) and holds
        it at ``local_address`` — a table row of this space's cache,
        or anything that carries the same two attributes.
        """
        named: Dict[int, object] = {}
        pending = []
        for row in rows:
            named[row.local_address] = row.pointer
            pending.append(row.local_address)
        self._emit(pending, named, False, 0)
        return self.batch

    def _emit(
        self,
        roots: List[int],
        named: Dict[int, object],
        budget_left: bool,
        total: int,
    ) -> List[int]:
        """The walk and the encode, one datum at a time.

        ``named`` maps each admitted local address to its type id (home
        data) or to its long pointer (a table row); children are
        followed while ``budget_left``, and ``total`` is the bytes
        admitted so far.  As a datum leaves the queue its image is read
        once, its pointer slots are translated (home data by one probe
        of the heap's base-address dict, the rest through the swizzler,
        memoised for the request), its children admitted and the datum
        packed.  Pool handles are interned in that order: the datum's
        own pair, then its slots'.
        """
        if self.order == BREADTH_FIRST:
            # Emission order is admission order: the root list is its
            # own queue, read by one iterator while it grows.
            emitted = roots
            pending: Iterable[int] = emitted
            admit = emitted.append
        else:
            emitted = []
            pending = _popping(roots, emitted)
            admit = roots.append
        runtime = self.runtime
        site_id = runtime.site_id
        allocation_based_at = runtime.heap.allocation_based_at
        unpack_raw = runtime.space.unpack_raw
        unswizzle = self.state.swizzler.unswizzle
        plans = self._plans
        follows = self._follow
        budget = self.budget_bytes
        # Local address -> long pointer of every pointer that is not
        # home data, for this request only.
        resolved: Dict[int, LongPointer] = {}
        pool = HandlePool()
        handles = pool.handles
        intern = pool.intern
        # Type id -> handle of (this space, type id): home pairs
        # without building the pair.
        home: Dict[str, int] = {}
        chunks: List[bytes] = [b"", b""]  # the head goes first
        append = chunks.append
        for address in pending:
            name = named[address]
            if name.__class__ is str:
                type_id = name
                wire = address
                handle = (
                    home[type_id] if type_id in home
                    else home.setdefault(type_id, intern(site_id, type_id))
                )
            else:
                space_id, wire, type_id = name
                if wire >= PROVISIONAL_BASE:
                    raise XdrError(
                        f"provisional {name!r} must never reach the wire"
                    )
                pair = (space_id, type_id)
                handle = handles[pair] if pair in handles else intern(*pair)
            plan = plans[type_id] if type_id in plans else self._plan(type_id)
            if type_id in follows:
                fused, scan = follows[type_id]
            else:
                fused, scan = follows[type_id] = self._pointers_to_follow(
                    plan, type_id
                )
            flat = plan.flat
            if flat is None:
                pointer = name if name.__class__ is not str else (
                    tuple.__new__(LongPointer, (site_id, wire, type_id))
                )
                append(_pack_union(
                    runtime, self.state, pointer, address, plan, pool,
                    resolved,
                ))
                if budget_left and scan is not None:
                    words = unpack_raw(scan[0], address + scan[1])
            else:
                words = unpack_raw(flat.native, address + flat.offset)
                key = 1
                if flat.slot_bits:
                    values = list(words)
                    here = fused and budget_left
                    for bit, index in flat.slot_bits:
                        value = values[index]
                        if not value:
                            continue
                        allocation = allocation_based_at(value)
                        if allocation is not None:
                            child_type = allocation.type_id
                            values[index] = (
                                home[child_type] if child_type in home
                                else home.setdefault(
                                    child_type, intern(site_id, child_type)
                                )
                            )
                            if here and value not in named:
                                size = (
                                    plans[child_type] if child_type in plans
                                    else self._plan(child_type)
                                ).size
                                if total + size > budget:
                                    here = budget_left = False
                                else:
                                    named[value] = child_type
                                    total += size
                                    admit(value)
                        else:
                            pointer = (
                                resolved[value] if value in resolved
                                else _translate(unswizzle, resolved, value)
                            )
                            pair = (pointer[0], pointer[2])
                            values[index] = (
                                handles[pair] if pair in handles
                                else intern(*pair)
                            )
                            value = pointer[1]
                        values[index + 1] = value
                        key |= bit
                else:
                    values = words
                if flat.enums:
                    flat.check_enums(values)
                codecs = flat.codecs
                codec = codecs[key] if key in codecs else flat.wire(key)
                append(codec.pack(handle, wire, *values))
            if budget_left and scan is not None:
                # Hinted pointer words, or a union datum's: followed
                # apart from the encode, in the order the hints give.
                for index in scan[2]:
                    value = words[index]
                    if not value or value in named:
                        continue
                    allocation = allocation_based_at(value)
                    if allocation is None:
                        # A pointer into this space's *cache* of a third
                        # space: the requester must fetch it from that
                        # space; do not traverse.
                        continue
                    child_type = allocation.type_id
                    size = (
                        plans[child_type] if child_type in plans
                        else self._plan(child_type)
                    ).size
                    if total + size > budget:
                        budget_left = False
                        break
                    named[value] = child_type
                    total += size
                    admit(value)
        chunks[0] = pool.head()
        chunks[1] = _U32.pack(len(emitted))
        self.batch = b"".join(chunks)
        return emitted

    # -- internals -----------------------------------------------------------

    def _plan(self, type_id: str) -> WirePlan:
        """The plan of one type id (resolved at its first use here)."""
        return self.runtime.wire_plan(type_id)

    def _pointers_to_follow(
        self, plan: WirePlan, type_id: str
    ) -> Tuple[bool, Optional[Follow]]:
        """How the walk follows the pointer words of a datum of
        ``type_id``: whether it follows every slot of a flat datum in
        slot order, as the encode translates them, and otherwise how
        to read the words to follow (``None`` when there are none).

        Programmer hints (paper §6: "suggestions provided by the
        programmer") can restrict and order which pointer fields are
        followed per type; unhinted types follow every pointer field.
        """
        offsets = None
        if self.hints is not None:
            offsets = self.hints.pointer_offsets(
                type_id, plan.spec, self.runtime.arch
            )
        if offsets is None:
            offsets = plan.pointer_offsets
        read = plan.follow(tuple(offsets))
        flat = plan.flat
        if flat is not None and read[2] == flat.slots:
            return True, None
        return False, read


def _translate(unswizzle, resolved: Dict[int, LongPointer], value: int):
    """Unswizzle one local pointer for the wire, into ``resolved``."""
    pointer = unswizzle(value)
    if pointer.is_provisional:
        raise SmartRpcError(
            f"provisional {pointer!r} leaked onto the wire; the "
            "memory batch must flush before any transfer"
        )
    resolved[value] = pointer
    return pointer


def _pack_union(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    pointer: LongPointer,
    address: int,
    plan: WirePlan,
    pool: HandlePool,
    resolved: Dict[int, LongPointer],
) -> bytes:
    """One datum whose type holds a union: the hook-driven codec
    dispatches its arm."""
    body = XdrEncoder()
    site_id = runtime.site_id
    allocation_based_at = runtime.heap.allocation_based_at
    unswizzle = state.swizzler.unswizzle

    def pointer_out(value: int, _target: str) -> None:
        out = None
        if value:
            allocation = allocation_based_at(value)
            if allocation is not None:
                out = tuple.__new__(
                    LongPointer, (site_id, value, allocation.type_id)
                )
            else:
                out = resolved.get(value) or _translate(
                    unswizzle, resolved, value
                )
        encode_long_pointer_pooled(body, out, pool)

    encode_long_pointer_pooled(body, pointer, pool)
    runtime.codec.encode(address, plan.spec, body, pointer_out)
    return body.getvalue()


def _popping(stack: List[int], emitted: List[int]):
    """Depth-first emission: each datum as it leaves the stack."""
    while stack:
        address = stack.pop()
        emitted.append(address)
        yield address
