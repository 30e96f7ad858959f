"""Programmer-supplied closure hints (paper §6).

The paper leaves open how to optimise "the 'shape' of the subset of
the transitive closure of a pointer": a closure that prefetches what
the remote procedure will actually touch minimises communication, but
predicting the access pattern is impossible in general — "one
promising solution is to use suggestions provided by the programmer."

:class:`ClosureHints` is that suggestion channel.  For any data type
the programmer can declare which pointer fields the remote access
pattern follows (and in what order); the closure walker then traverses
only those fields of hinted types, in the given order.  Unhinted types
traverse every pointer field, as before.

Example — hash-table retrieval touches one bucket head and its chain,
so prefetching the other 255 buckets' chains is pure waste::

    hints = ClosureHints()
    hints.follow("hash_table", [])          # never fan out of the header
    hints.follow("hash_node", ["next"])     # do run down the chain
    runtime = SmartRpcRuntime(
        network, site, arch, policy=make_policy("paper", closure_hints=hints)
    )

The hints are the policy's ``closure_hints`` field: the home space
walks its closures with its own policy's hints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.smartrpc.errors import SmartRpcError
from repro.xdr.arch import Architecture
from repro.xdr.raw import wire_plan
from repro.xdr.types import StructType, TypeSpec


class ClosureHints:
    """Per-type traversal suggestions for the closure walker."""

    def __init__(self) -> None:
        self._follow: Dict[str, Tuple[str, ...]] = {}

    def follow(self, type_id: str, fields: Sequence[str]) -> None:
        """Declare that the remote pattern follows only ``fields``.

        ``fields`` is an ordered list of pointer-bearing member names
        of the (struct) type bound to ``type_id``; an empty list means
        "treat this type as a leaf".  Field names are validated
        lazily, when the hint is first applied to a resolved type.
        """
        self._follow[type_id] = tuple(fields)

    def hinted(self, type_id: str) -> bool:
        """Whether a hint exists for ``type_id``."""
        return type_id in self._follow

    def pointer_offsets(
        self, type_id: str, spec: TypeSpec, arch: Architecture
    ) -> Optional[List[int]]:
        """Byte offsets of the pointers to follow, in hint order.

        Returns ``None`` when the type is unhinted (caller falls back
        to every pointer field).
        """
        fields = self._follow.get(type_id)
        if fields is None:
            return None
        if not fields:
            return []
        if not isinstance(spec, StructType):
            raise SmartRpcError(
                f"closure hint for {type_id!r} names fields, but the "
                "type is not a struct"
            )
        # The pointer words the wire plan lists (in address order) that
        # lie inside each named field's byte span.
        words = wire_plan(spec, arch).pointer_offsets
        layout = spec.layout(arch)
        offsets: List[int] = []
        for name in fields:
            field = spec.field(name)  # raises on unknown names
            start = layout.offsets[name]
            end = start + field.spec.sizeof(arch)
            member_offsets = [word for word in words if start <= word < end]
            if not member_offsets:
                raise SmartRpcError(
                    f"closure hint field {type_id}.{name} contains "
                    "no pointers"
                )
            offsets.extend(member_offsets)
        return offsets
