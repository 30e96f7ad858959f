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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.smartrpc.errors import DanglingPointerError, SmartRpcError
from repro.smartrpc.long_pointer import LongPointer
from repro.xdr.raw import Follow, WirePlan, wire_plan
from repro.xdr.types import TypeSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.smartrpc.hints import ClosureHints
    from repro.smartrpc.runtime import SmartRpcRuntime, SmartSessionState

BREADTH_FIRST = "bfs"
DEPTH_FIRST = "dfs"


class ClosureItem:
    """One datum selected for transfer.

    ``values`` is the datum's ``flat.native`` image once a walk has
    read it, so the encoder packs from it instead of reading the heap
    a second time; ``None`` until then (and for a type with a union).
    """

    __slots__ = ("pointer", "spec", "address", "values")

    def __init__(
        self,
        pointer: LongPointer,
        spec: TypeSpec,
        address: int,
        values: Optional[tuple] = None,
    ) -> None:
        self.pointer = pointer
        self.spec = spec
        self.address = address
        self.values = values


class ClosureWalker:
    """Walks a home space's heap from a set of requested pointers.

    One walker serves one request.  ``resolved`` maps every local
    address the walk resolved through the heap to its long pointer;
    :func:`repro.smartrpc.transfer.encode_batch` takes it over so the
    same pointers are not unswizzled a second time while encoding.
    Likewise each datum the walk expands is read once, whole, and its
    values stay on its item for the encoder.
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
        self.resolved: Dict[int, LongPointer] = {}
        # Per type id, resolved once per walk: the type's plan and
        # spec, and (worked out when the first datum of the type is
        # expanded) how to read the pointer words to follow.
        self._shapes: Dict[str, Tuple[WirePlan, TypeSpec]] = {}
        self._follow: Dict[str, Tuple[Optional[Follow], bool]] = {}

    def walk(self, roots: Sequence[LongPointer]) -> List[ClosureItem]:
        """Select data to transfer: all roots, then closure to budget.

        Requested roots are always included (the requester faulted on
        them); traversal beyond the roots stops once the total size of
        selected data exceeds the budget.  Admission happens when a
        child is discovered; emission order is traversal order (level
        by level for BFS, branch by branch for DFS).
        """
        items: List[ClosureItem] = []
        if self.order == BREADTH_FIRST:
            # Emission order is admission order: the item list is its
            # own queue, read by one iterator while it grows.
            pending = items
            admit = items.append
        else:
            stack: List[ClosureItem] = []
            pending = _popping(stack, items)
            admit = stack.append
        seen: Set[LongPointer] = set()
        total = 0
        for root in roots:
            if root in seen:
                continue
            seen.add(root)
            admit(self._materialise(root))
            total += self._shape(root.type_id)[0].size
        budget = self.budget_bytes
        budget_left = total < budget
        unpack_raw = self.runtime.space.unpack_raw
        site_id = self.runtime.site_id
        allocation_at = self.runtime.heap.allocation_at
        resolved = self.resolved
        shapes = self._shapes
        follow = self._follow
        new_pointer = tuple.__new__
        for item in pending:
            if not budget_left:
                continue
            type_id = item.pointer[2]
            if type_id in follow:
                read, whole = follow[type_id]
            else:
                read, whole = follow[type_id] = self._pointers_to_follow(
                    type_id
                )
            if read is None:
                continue
            codec, start, slots = read
            values = unpack_raw(codec, item.address + start)
            if whole:
                item.values = values
            for index in slots:
                value = values[index]
                if not value:
                    continue
                if value in resolved:
                    child = resolved[value]
                else:
                    allocation = allocation_at(value)
                    if allocation is None or allocation.address != value:
                        # A pointer into this space's *cache* of a
                        # third space: the requester must fetch it from
                        # that space; do not traverse.
                        continue
                    # A live allocation's base is a positive address,
                    # so the pointer is built without LongPointer's
                    # own check.
                    child = resolved[value] = new_pointer(
                        LongPointer, (site_id, value, allocation.type_id)
                    )
                if child in seen:
                    continue
                child_type = child[2]
                if child_type in shapes:
                    plan, spec = shapes[child_type]
                else:
                    plan, spec = self._shape(child_type)
                if total + plan.size > budget:
                    budget_left = False
                    break
                seen.add(child)
                total += plan.size
                admit(ClosureItem(child, spec, value))
        return items

    # -- internals -----------------------------------------------------------

    def _shape(self, type_id: str) -> Tuple[WirePlan, TypeSpec]:
        """The plan and spec of one type id (resolved at first use)."""
        shape = self._shapes.get(type_id)
        if shape is None:
            spec = self.runtime.resolver.resolve(type_id)
            shape = self._shapes[type_id] = (
                wire_plan(spec, self.runtime.arch), spec,
            )
        return shape

    def _materialise(self, pointer: LongPointer) -> ClosureItem:
        if pointer.space_id != self.runtime.site_id:
            raise SmartRpcError(
                f"{pointer!r} requested from non-home space "
                f"{self.runtime.site_id!r}"
            )
        allocation = self.runtime.heap.allocation_at(pointer.address)
        if allocation is None or allocation.address != pointer.address:
            raise DanglingPointerError(
                f"{pointer!r} does not reference a live allocation"
            )
        return ClosureItem(
            pointer, self._shape(pointer.type_id)[1], pointer.address
        )

    def _pointers_to_follow(
        self, type_id: str
    ) -> Tuple[Optional[Follow], bool]:
        """How to read the pointer words to follow out of a datum of
        ``type_id``, and whether that read is the datum's whole image.

        Programmer hints (paper §6: "suggestions provided by the
        programmer") can restrict and order which pointer fields are
        followed per type; unhinted types follow every pointer field.
        """
        plan, spec = self._shapes[type_id]
        offsets = None
        if self.hints is not None:
            offsets = self.hints.pointer_offsets(
                type_id, spec, self.runtime.arch
            )
        if offsets is None:
            offsets = plan.pointer_offsets
        return plan.follow(tuple(offsets)), plan.flat is not None


def _popping(stack: List[ClosureItem], items: List[ClosureItem]):
    """Depth-first emission: each item as it leaves the stack."""
    while stack:
        item = stack.pop()
        items.append(item)
        yield item
