"""Long pointers and their wire encodings.

A long pointer extends pointer semantics to the whole distributed
system (paper §3.2).  It is a triple of

* an **address space identifier** (site id),
* an **address** valid within that space, and
* a **data type specifier** (a type id resolvable through the name
  service) — essential for heterogeneity, because the receiving side
  must know the structure to lay the data out natively.

Two encodings exist:

* the *plain* encoding (self-contained strings) used for isolated
  pointers in RPC argument lists;
* the *pooled* encoding used inside data-transfer batches, where space
  ids and type ids are interned into a per-message string pool so a
  batch of hundreds of tree nodes does not repeat ``"tree_node"``
  hundreds of times.  The original implementation similarly shipped
  compact identifiers rather than strings.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder, string_image

# Addresses at or above this value are *provisional*: handed out by
# extended_malloc before the batched remote allocation has assigned the
# real home address.  No simulated address space ever maps this high.
PROVISIONAL_BASE = 1 << 62


class LongPointer(tuple):
    """One long pointer (paper §3.2): ``(space_id, address, type_id)``.

    A tuple underneath — immutable, no per-instance ``__dict__``,
    hashed and compared in C — because every ``seen``-set and
    allocation-table probe of the fill path keys on one.  (A plain
    3-tuple of the same values therefore compares equal to it.)
    Calling the class runs :meth:`__new__`'s address check in Python;
    the fill path, which has checked the address already, builds one
    in C with ``tuple.__new__(LongPointer, (space_id, address,
    type_id))``.
    """

    __slots__ = ()

    def __new__(
        cls, space_id: str, address: int, type_id: str
    ) -> "LongPointer":
        if address <= 0:
            raise XdrError(
                f"long pointer address must be positive, got {address!r}"
            )
        return tuple.__new__(cls, (space_id, address, type_id))

    space_id = property(itemgetter(0), doc="Address space identifier.")
    address = property(itemgetter(1), doc="Address within that space.")
    type_id = property(itemgetter(2), doc="Data type specifier.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    @property
    def is_provisional(self) -> bool:
        """Whether the home address is still a pre-batch placeholder."""
        return self[1] >= PROVISIONAL_BASE

    def with_address(self, address: int) -> "LongPointer":
        """A copy at a different home address (batch patching)."""
        return LongPointer(self[0], address, self[2])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "?" if self.is_provisional else ""
        return (
            f"LongPointer({self.space_id}:{self.address:#x}{tag} "
            f"{self.type_id})"
        )


NULL_POINTER: Optional[LongPointer] = None
"""The wire-level NULL: encoded as an absent long pointer."""


# -- plain encoding -----------------------------------------------------------


def encode_long_pointer(
    encoder: XdrEncoder, pointer: Optional[LongPointer]
) -> None:
    """Append the plain (self-contained) encoding."""
    if pointer is None:
        encoder.pack_bool(False)
        return
    encoder.pack_bool(True)
    encoder.pack_string(pointer.space_id)
    encoder.pack_uint64(pointer.address)
    encoder.pack_string(pointer.type_id)


def decode_long_pointer(decoder: XdrDecoder) -> Optional[LongPointer]:
    """Read one plain-encoded long pointer (or NULL)."""
    if not decoder.unpack_bool():
        return None
    space_id = decoder.unpack_string()
    address = decoder.unpack_uint64()
    type_id = decoder.unpack_string()
    return LongPointer(space_id, address, type_id)


# -- pooled (compact) encoding ------------------------------------------------


class HandlePool:
    """Interns ``(space id, type id)`` pairs for one batch message.

    A pooled long pointer is a 32-bit *handle* naming the interned
    pair (0 is NULL) plus the full 64-bit address, so a batch of
    hundreds of tree nodes does not repeat strings hundreds of times.
    The pool table itself is written once at the head of the message.
    The original implementation likewise shipped compact identifiers,
    not strings; this is what keeps the proposed method's wire volume
    within a small factor of the raw data size.

    ``handles`` (pair -> handle) and ``pairs`` (handle - 1 -> pair) are
    read-only to callers: a hot loop probes ``handles`` and falls back
    on :meth:`intern`.  The ids are strings every message repeats, so
    each goes through the one intern table of :mod:`repro.xdr.stream`
    both ways.
    """

    __slots__ = ("handles", "pairs")

    def __init__(self, pairs: Sequence[Tuple[str, str]] = ()) -> None:
        self.pairs: List[Tuple[str, str]] = list(pairs)
        self.handles: Dict[Tuple[str, str], int] = dict(
            zip(self.pairs, range(1, len(self.pairs) + 1))
        )

    def intern(self, space_id: str, type_id: str) -> int:
        """Handle (index + 1) of the pair, assigning one if new."""
        key = (space_id, type_id)
        handle = self.handles.get(key)
        if handle is None:
            self.pairs.append(key)
            handle = self.handles[key] = len(self.pairs)
        return handle

    def lookup(self, handle: int) -> Tuple[str, str]:
        """Pair named by a nonzero handle."""
        if not 0 < handle <= len(self.pairs):
            raise XdrError(f"bad handle-pool handle {handle!r}")
        return self.pairs[handle - 1]

    def head(self) -> bytes:
        """The pool table's wire image: pair count, then each pair's
        two strings."""
        return _U32.pack(len(self.pairs)) + b"".join(
            [string_image(text) for pair in self.pairs for text in pair]
        )

    def encode(self, encoder: XdrEncoder) -> None:
        """Append the pool table."""
        encoder.pack_fixed_opaque(self.head())

    @classmethod
    def decode(cls, decoder: XdrDecoder) -> "HandlePool":
        """Read a pool table."""
        unpack = decoder.unpack_string
        return cls(
            [(unpack(), unpack()) for _ in range(decoder.unpack_uint32())]
        )

    def __len__(self) -> int:
        return len(self.pairs)


_U32 = struct.Struct(">I")


def encode_long_pointer_pooled(
    encoder: XdrEncoder,
    pointer: Optional[LongPointer],
    pool: HandlePool,
) -> None:
    """Append the compact 12-byte pooled encoding (or 4-byte NULL)."""
    if pointer is None:
        encoder.pack_uint32(0)
        return
    if pointer.is_provisional:
        raise XdrError(
            f"provisional {pointer!r} must never reach the wire"
        )
    encoder.pack_uint32(pool.intern(pointer.space_id, pointer.type_id))
    encoder.pack_uint64(pointer.address)


def decode_long_pointer_pooled(
    decoder: XdrDecoder, pool: HandlePool
) -> Optional[LongPointer]:
    """Read one pooled-encoded long pointer (or NULL)."""
    handle = decoder.unpack_uint32()
    if handle == 0:
        return None
    space_id, type_id = pool.lookup(handle)
    address = decoder.unpack_uint64()
    return LongPointer(space_id, address, type_id)
