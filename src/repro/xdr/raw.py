"""Raw-memory <-> canonical-form conversion, driven by compiled wire plans.

The home runtime reads typed data out of its heap in the machine's
native representation, encodes it canonically for the wire, and the
receiving runtime decodes it into *its* native representation — the
endianness/width/alignment translation that makes the system
heterogeneous.

The conversion is compiled, not interpreted: :func:`wire_plan` turns a
``(TypeSpec, Architecture)`` pair once into a :class:`WirePlan` — a
native :class:`struct.Struct` over the datum's in-memory bytes, the
matching canonical-wire ``Struct``, and the positions of the pointer
slots between them — so moving one datum costs one ``unpack_from`` and
one ``pack_into`` instead of a call per field.  Plans are memoised on
the spec (keyed by architecture name, like ``StructType._layouts``);
specs are immutable, so a plan never needs invalidating.

Pointer fields are delegated to hooks because their wire form (long
pointers) and their local form (swizzled addresses) are RPC-runtime
concerns:

* ``encode`` calls ``pointer_out(pointer_value, target_type_id)`` and
  the hook appends the long-pointer encoding to the stream
  (*unswizzling*);
* ``decode`` calls ``pointer_in(target_type_id)`` and the hook consumes
  the long-pointer encoding and returns the local address to store
  (*swizzling*).

The data-transfer batches (:mod:`repro.smartrpc.transfer`) know their
pointer encoding up front — a pooled long pointer or a NULL marker —
and drive the same plans without hooks, one ``Struct`` per datum.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.memory.address_space import AddressSpace
from repro.xdr.arch import Architecture
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import (
    ArrayType,
    EnumType,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
    TypeSpec,
    UnionType,
)

PointerOut = Callable[[int, str], None]
PointerIn = Callable[[str], int]

#: Wire codes of one pointer slot inside a batch item: a pooled long
#: pointer (32-bit pool handle + 64-bit home address) or the 4-byte
#: NULL marker.  ``0s`` takes one (empty) value and no bytes, so a slot
#: spans two values either way and a datum's value positions do not
#: depend on which of its pointers are NULL.
LONG_SLOT = "IQ"
NULL_SLOT = "I0s"
_LONG_SLOT_BYTES = 12
_NULL_SLOT_BYTES = 4

_POINTER_CODES = {4: "I", 8: "Q"}

# XDR packs every scalar in 4-byte units; 8-byte scalars take two.
_WIRE_SCALAR = {
    ScalarKind.INT8: "i",
    ScalarKind.INT16: "i",
    ScalarKind.INT32: "i",
    ScalarKind.UINT8: "I",
    ScalarKind.UINT16: "I",
    ScalarKind.UINT32: "I",
    ScalarKind.INT64: "q",
    ScalarKind.UINT64: "Q",
    ScalarKind.FLOAT32: "f",
    ScalarKind.FLOAT64: "d",
}


def raw_identity_size(spec: TypeSpec, arch: Architecture):
    """Bytes per value when native memory *is* the canonical form.

    Returns ``None`` when the two representations differ.  Identity
    holds for big-endian 4/8-byte scalars (XDR is big-endian and packs
    in 4-byte units) and for opaque blocks whose length is already a
    multiple of 4 (so no inter-element padding is owed).  Arrays of
    such elements can then be shipped with one bulk copy instead of a
    per-element encode/decode loop — the page codec of the zero-copy
    wire path.
    """
    if isinstance(spec, ScalarType):
        size = spec.kind.size
        if size >= 4 and arch.byteorder == "big":
            return size
        return None
    if isinstance(spec, OpaqueType):
        if spec.length % 4 == 0:
            return spec.length
        return None
    return None


# -- the layout compiler ------------------------------------------------------


class RunPlan:
    """A compiled read of several members laid out in one byte span.

    One access covers the byte span ``[start, start + span)`` relative
    to the datum's base; :attr:`unpack` decodes the members out of the
    blob with one precompiled :class:`struct.Struct` call.
    ``accesses`` is the modelled access count the run replaces (one
    per member; one per element for array members), which the checked
    accessor charges so simulated time stays identical to a per-field
    loop.
    """

    __slots__ = ("start", "span", "accesses", "codec", "unpack")

    def __init__(
        self,
        start: int,
        span: int,
        accesses: int,
        codec: struct.Struct,
        order: Tuple[int, ...],
    ) -> None:
        self.start = start
        self.span = span
        self.accesses = accesses
        self.codec = codec
        #: ``unpack(blob)`` -> the run's values (member order, arrays
        #: flattened): the codec's own C ``unpack`` when the members
        #: were given in address order, else that composed with the
        #: reorder.
        self.unpack: Callable[[bytes], tuple] = (
            codec.unpack if order == tuple(range(len(order)))
            else _reordered(codec.unpack, order)
        )


def _reordered(
    unpack: Callable[[bytes], tuple], order: Tuple[int, ...]
) -> Callable[[bytes], tuple]:
    """``unpack`` followed by a reorder.  ``order`` is not the identity,
    so it has at least two indices and ``itemgetter`` returns a tuple
    (at C speed)."""
    pick = operator.itemgetter(*order)
    return lambda blob: pick(unpack(blob))


#: One member of a run: byte offset, in-memory size, struct codes,
#: value count, modelled access count.
Member = Tuple[int, int, str, int, int]


def compile_run(
    arch: Architecture, members: Sequence[Member], what: str
) -> RunPlan:
    """Compile members (given in result order) into one :class:`RunPlan`.

    The struct format covers the members in address order with ``x``
    pad bytes over the gaps between them; the plan's reorder step puts
    the values back into the order the members were given in.
    """
    if not members:
        raise XdrError("an access run needs at least one field")
    by_address = sorted(range(len(members)), key=lambda i: members[i][0])
    start = members[by_address[0]][0]
    codes = [">" if arch.byteorder == "big" else "<"]
    cursor = start
    accesses_total = 0
    first_value: Dict[int, int] = {}
    index = 0
    for rank in by_address:
        offset, size, member_codes, nvalues, accesses = members[rank]
        if offset < cursor:
            raise XdrError(f"members of {what} overlap")
        if offset > cursor:
            codes.append(f"{offset - cursor}x")
        codes.append(member_codes)
        first_value[rank] = index
        index += nvalues
        cursor = offset + size
        accesses_total += accesses
    order: List[int] = []
    for rank, member in enumerate(members):
        order.extend(range(first_value[rank], first_value[rank] + member[3]))
    return RunPlan(
        start, cursor - start, accesses_total,
        struct.Struct("".join(codes)), tuple(order),
    )


def pointer_code(arch: Architecture) -> str:
    """The struct code of one ordinary pointer word on ``arch``."""
    return _POINTER_CODES[arch.pointer_size]


# -- wire plans ---------------------------------------------------------------


class FlatStep:
    """A statically laid-out stretch of a datum.

    ``native`` unpacks the stretch's in-memory bytes (at ``offset``
    from the datum's base) and :meth:`wire` packs the very same value
    tuple canonically, so converting is one call each way.  A pointer
    slot holds two values — the pointer word (or pool handle) at
    ``slots[j]`` and a filler (or home address) after it.
    """

    __slots__ = (
        "offset", "native", "slots", "slot_bits", "slot_wire",
        "targets", "enums", "pads", "narrow", "checked", "segments",
        "codecs", "_hooked",
    )

    #: Flat steps have no arms; :class:`UnionStep` does.
    arms = None

    def __init__(
        self,
        run: RunPlan,
        segments: Sequence[str],
        slots: Sequence[int],
        targets: Sequence[str],
        enums: Sequence[Tuple[int, EnumType]],
        pads: Sequence[Tuple[int, bytes]],
        narrow: Sequence[Tuple[int, ScalarType]],
    ) -> None:
        self.offset = run.start
        self.native = run.codec
        #: Wire codes of the values before, between and after the slots.
        self.segments = tuple(segments)
        self.slots = tuple(slots)
        self.targets = tuple(targets)
        #: ``(key bit, value index)`` per pointer slot; bit 0 of a key
        #: is the header flag, so slot ``j`` owns bit ``j + 1``.
        self.slot_bits = tuple(
            (2 << j, index) for j, index in enumerate(self.slots)
        )
        # ``(key bit, wire offset of the slot's handle)`` when every
        # earlier slot is NULL; each earlier long pointer pushes it 8
        # bytes further.
        offsets = []
        cursor = 0
        for j in range(len(self.slots)):
            cursor += struct.calcsize(">" + self.segments[j])
            offsets.append((2 << j, cursor))
            cursor += _NULL_SLOT_BYTES
        self.slot_wire = tuple(offsets)
        #: Values to validate as enum members (both directions).
        self.enums = tuple(enums)
        #: Wire padding values that must arrive as zeros.
        self.pads = tuple(pads)
        #: Scalars narrower on this machine than on the wire.
        self.narrow = tuple(narrow)
        #: Whether :meth:`check_decoded` has anything to look at.
        self.checked = bool(self.enums or self.pads)
        #: ``wire()`` results by key — hot loops probe this directly.
        self.codecs: Dict[int, struct.Struct] = {}
        self._hooked: Optional[tuple] = None

    def wire(self, key: int) -> struct.Struct:
        """The canonical ``Struct`` for ``key``.

        Bit 0 prefixes the batch item's own pooled long pointer (its
        header); bit ``j + 1`` says slot ``j`` carries a long pointer
        rather than NULL.
        """
        codec = self.codecs.get(key)
        if codec is None:
            codes = [">" + LONG_SLOT if key & 1 else ">"]
            for j, segment in enumerate(self.segments):
                codes.append(segment)
                if j < len(self.slots):
                    codes.append(LONG_SLOT if key & 2 << j else NULL_SLOT)
            codec = self.codecs[key] = struct.Struct("".join(codes))
        return codec

    def sniff(self, peek: Callable[[int], int], header: int) -> struct.Struct:
        """The ``Struct`` matching the canonical bytes ahead.

        ``peek(n)`` reads the unsigned 32-bit word ``n`` bytes on; the
        handles found there say which slots are long pointers.
        ``header`` is 1 when an item header leads the value, else 0.
        """
        key = header
        shift = _LONG_SLOT_BYTES if header else 0
        for bit, offset in self.slot_wire:
            if peek(offset + shift):
                key |= bit
                shift += _LONG_SLOT_BYTES - _NULL_SLOT_BYTES
        return self.codecs.get(key) or self.wire(key)

    def hooked(self) -> tuple:
        """Per segment ``(Struct or None, first value, end, target)``.

        The hook-driven form: pointer hooks read or write the stream
        themselves, so the values around each slot get their own
        ``Struct``.  ``end`` indexes the slot that follows the segment
        and ``target`` is that slot's type id; both are ``None`` after
        the last segment.
        """
        if self._hooked is None:
            parts = []
            start = 0
            for segment, end, target in zip(
                self.segments, self.slots + (None,), self.targets + (None,)
            ):
                parts.append((
                    struct.Struct(">" + segment) if segment else None,
                    start,
                    end,
                    target,
                ))
                if end is not None:
                    start = end + 2
            self._hooked = tuple(parts)
        return self._hooked

    def check_enums(self, values: Sequence) -> None:
        """Raise unless every enum value names a member."""
        for index, spec in self.enums:
            spec.name_of(values[index])

    def check_decoded(self, values: Sequence, lead: int = 0) -> None:
        """Validate one value tuple that arrived off the wire.

        ``lead`` values (an item header) precede the step's own.
        """
        for index, spec in self.enums:
            spec.name_of(values[index + lead])
        for index, zeros in self.pads:
            if values[index + lead] != zeros:
                raise XdrError(
                    f"nonzero XDR padding {bytes(values[index + lead])!r}"
                )


class UnionStep:
    """A discriminated union inside a datum: dispatch at run time."""

    __slots__ = ("offset", "body", "native", "spec", "arms")

    def __init__(
        self, offset: int, spec: UnionType, arch: Architecture
    ) -> None:
        self.offset = offset
        self.body = offset + spec.body_offset(arch)
        self.native = struct.Struct(
            ">i" if arch.byteorder == "big" else "<i"
        )
        self.spec = spec
        self.arms: Dict[int, WirePlan] = {
            spec.discriminant.value_of(member): wire_plan(arm, arch)
            for member, arm in spec.arms.items()
        }

    def arm(self, value: int) -> "WirePlan":
        """The plan of the arm a discriminant value selects."""
        try:
            return self.arms[value]
        except KeyError:
            self.spec.arm_for(value)  # raises: not a member
            raise


#: A walk's read of one datum: codec, start offset, value indices.
Follow = Tuple[struct.Struct, int, Tuple[int, ...]]


class WirePlan:
    """Everything the data plane needs to know about one type's layout.

    ``steps`` convert the datum in address order; almost every type is
    one :class:`FlatStep`, exposed as ``flat`` for the one-``Struct``
    fast path.  Only a type containing a union has more.
    """

    __slots__ = (
        "spec", "size", "alignment", "steps", "flat", "pointer_offsets",
        "_follows", "_arch",
    )

    def __init__(
        self,
        spec: TypeSpec,
        arch: Architecture,
        steps: Sequence,
        pointer_offsets: Sequence[int],
    ) -> None:
        #: The type the plan lays out.
        self.spec = spec
        self.size = spec.sizeof(arch)
        self.alignment = spec.alignment(arch)
        self.steps = tuple(steps)
        first = self.steps[0]
        self.flat = first if len(steps) == 1 and first.arms is None else None
        #: Byte offset of every pointer word inside the datum.
        self.pointer_offsets = tuple(pointer_offsets)
        self._follows: Dict[Tuple[int, ...], Optional[Follow]] = {}
        self._arch = arch

    def follow(self, offsets: Tuple[int, ...]) -> Optional[Follow]:
        """How a walk reads a datum to follow its pointer words at
        ``offsets`` (memoised).

        ``(codec, start, indices)``: unpack ``codec`` at the datum's
        base plus ``start``; the words to follow are the values at
        ``indices``, in the order ``offsets`` gives (hints may name the
        words in any order, even twice).  On a flat plan ``codec`` is
        ``flat.native``, so the one read is the datum's whole image,
        which the encoder then packs without reading the heap again;
        otherwise it reads just the words.  ``None`` when there is
        nothing to read.
        """
        try:
            return self._follows[offsets]
        except KeyError:
            pass
        found = None
        flat = self.flat
        if flat is not None:
            # A flat plan's pointer words are its one step's slots.
            slot_of = dict(zip(self.pointer_offsets, flat.slots))
            found = (
                flat.native, flat.offset,
                tuple(slot_of[offset] for offset in offsets),
            )
        elif offsets:
            arch = self._arch
            code = pointer_code(arch)
            words = sorted(set(offsets))
            read = compile_run(
                arch,
                [(word, arch.pointer_size, code, 1, 1) for word in words],
                "a pointer run",
            )
            found = (
                read.codec, read.start,
                tuple(words.index(offset) for offset in offsets),
            )
        self._follows[offsets] = found
        return found


def wire_plan(spec: TypeSpec, arch: Architecture) -> WirePlan:
    """The (memoised) wire plan of ``spec`` on ``arch``."""
    plans = spec.__dict__.get("_wire_plans")
    if plans is None:
        # Through __dict__: most specs are frozen dataclasses.
        plans = spec.__dict__.setdefault("_wire_plans", {})
    plan = plans.get(arch.name)
    if plan is None:
        plan = plans[arch.name] = _PlanCompiler(arch).compile(spec)
    return plan


class _PlanCompiler:
    """Flattens one spec into steps (the ladder, walked once)."""

    def __init__(self, arch: Architecture) -> None:
        self.arch = arch
        self.steps: List = []
        self.pointer_offsets: List[int] = []
        self._open()

    def compile(self, spec: TypeSpec) -> WirePlan:
        self._emit(spec, 0)
        self._close()
        return WirePlan(spec, self.arch, self.steps, self.pointer_offsets)

    def _open(self) -> None:
        self.members: List[Member] = []
        self.segments: List[List[str]] = [[]]
        self.count = 0
        self.slots: List[int] = []
        self.targets: List[str] = []
        self.enums: List[Tuple[int, EnumType]] = []
        self.pads: List[Tuple[int, bytes]] = []
        self.narrow: List[Tuple[int, ScalarType]] = []

    def _close(self) -> None:
        if self.members:
            self.steps.append(FlatStep(
                # Members arrive in address order (natural C layout),
                # so the run's value order is the wire order.
                compile_run(self.arch, self.members, "a wire plan"),
                ["".join(codes) for codes in self.segments],
                self.slots, self.targets, self.enums, self.pads,
                self.narrow,
            ))
        self._open()

    def _leaf(
        self, offset: int, size: int, native: str, wire: str, nvalues: int = 1
    ) -> None:
        self.members.append((offset, size, native, nvalues, 1))
        self.segments[-1].append(wire)
        self.count += nvalues

    def _emit(self, spec: TypeSpec, offset: int) -> None:
        arch = self.arch
        if isinstance(spec, ScalarType):
            kind = spec.kind
            if kind.size < 4:
                self.narrow.append((self.count, spec))
            self._leaf(
                offset, kind.size, kind.struct_code, _WIRE_SCALAR[kind]
            )
        elif isinstance(spec, OpaqueType):
            length = spec.length
            padding = -length % 4
            if padding:
                # The pad rides as a value of its own: empty out of
                # memory (struct zero-fills it onto the wire), checked
                # against zeros off the wire, dropped into ``0s``.
                self.pads.append((self.count + 1, bytes(padding)))
                self._leaf(
                    offset, length, f"{length}s0s",
                    f"{length}s{padding}s", 2,
                )
            else:
                self._leaf(offset, length, f"{length}s", f"{length}s")
        elif isinstance(spec, PointerType):
            self.slots.append(self.count)
            self.targets.append(spec.target_type_id)
            self.pointer_offsets.append(offset)
            self.members.append(
                (offset, arch.pointer_size, pointer_code(arch) + "0s", 2, 1)
            )
            self.count += 2
            self.segments.append([])
        elif isinstance(spec, ArrayType):
            stride = spec.stride(arch)
            unit = raw_identity_size(spec.element, arch)
            if unit is not None and unit == stride:
                # Native memory already is the canonical form: one copy.
                total = unit * spec.count
                self._leaf(offset, total, f"{total}s", f"{total}s")
                return
            for index in range(spec.count):
                self._emit(spec.element, offset + index * stride)
        elif isinstance(spec, StructType):
            layout = spec.layout(arch)
            for field in spec.fields:
                self._emit(field.spec, offset + layout.offsets[field.name])
        elif isinstance(spec, EnumType):
            self.enums.append((self.count, spec))
            self._leaf(offset, 4, "i", "i")
        elif isinstance(spec, UnionType):
            self._close()
            self.steps.append(UnionStep(offset, spec, arch))
        else:
            raise XdrError(f"cannot encode spec {spec!r}")


# -- the hook-driven codec ----------------------------------------------------


class RawCodec:
    """Converts typed raw memory to/from the canonical form."""

    def __init__(self, space: AddressSpace, arch: Architecture) -> None:
        self.space = space
        self.arch = arch
        self._pointer = struct.Struct(
            (">" if arch.byteorder == "big" else "<") + pointer_code(arch)
        )
        self._pointer_limit = 1 << (8 * arch.pointer_size)

    # -- encoding (native memory -> canonical) ------------------------------

    def encode(
        self,
        address: int,
        spec: TypeSpec,
        encoder: XdrEncoder,
        pointer_out: PointerOut,
    ) -> None:
        """Append the canonical form of the value at ``address``."""
        self._encode(
            wire_plan(spec, self.arch).steps, address, encoder, pointer_out
        )

    def _encode(
        self,
        steps: Sequence,
        base: int,
        encoder: XdrEncoder,
        pointer_out: PointerOut,
    ) -> None:
        space = self.space
        for step in steps:
            values = space.unpack_raw(step.native, base + step.offset)
            if step.arms is not None:
                arm = step.arm(values[0])
                encoder.pack_int32(values[0])
                self._encode(arm.steps, base + step.body, encoder, pointer_out)
                continue
            step.check_enums(values)
            if not step.slots:
                encoder.pack_struct(step.wire(0), *values)
                continue
            for codec, start, end, target in step.hooked():
                if codec is not None:
                    encoder.pack_struct(codec, *values[start:end])
                if target is not None:
                    pointer_out(values[end], target)

    # -- decoding (canonical -> native memory) --------------------------------

    def decode(
        self,
        decoder: XdrDecoder,
        address: int,
        spec: TypeSpec,
        pointer_in: PointerIn,
    ) -> None:
        """Materialise one canonical value into memory at ``address``.

        Writes through the raw (kernel) plane: the destination is
        typically a protected cache page being filled by the runtime.
        Alignment gaps inside the value are written as zeros.
        """
        self._decode(
            wire_plan(spec, self.arch).steps, decoder, address, pointer_in
        )

    def _decode(
        self,
        steps: Sequence,
        decoder: XdrDecoder,
        base: int,
        pointer_in: PointerIn,
    ) -> None:
        for step in steps:
            if step.arms is not None:
                value = decoder.unpack_int32()
                arm = step.arm(value)
                self.space.pack_raw(step.native, base + step.offset, (value,))
                self._decode(arm.steps, decoder, base + step.body, pointer_in)
                continue
            if not step.slots:
                values = decoder.unpack_struct(step.wire(0))
            else:
                values = []
                for codec, _start, _end, target in step.hooked():
                    if codec is not None:
                        values += decoder.unpack_struct(codec)
                    if target is not None:
                        values.append(pointer_in(target))
                        values.append(b"")
            step.check_decoded(values)
            self.store(step, base, values)

    def store(self, step: FlatStep, base: int, values: Sequence) -> None:
        """Write one flat step's native bytes of the datum at ``base``."""
        try:
            self.space.pack_raw(step.native, base + step.offset, values)
        except struct.error as exc:
            # Name the value that does not fit this machine.
            for index in step.slots:
                self.check_pointer(values[index])
            for index, spec in step.narrow:
                spec.pack_raw(values[index], self.arch)
            raise XdrError(str(exc)) from exc

    # -- pointer words --------------------------------------------------------

    def read_pointer(self, address: int) -> int:
        """Read one ordinary pointer word (raw plane)."""
        return self.space.unpack_raw(self._pointer, address)[0]

    def check_pointer(self, value: int) -> None:
        """Raise unless ``value`` fits this machine's pointer word."""
        if value < 0 or value >= self._pointer_limit:
            raise XdrError(
                f"pointer {value:#x} does not fit in "
                f"{self.arch.pointer_size} bytes on {self.arch.name}"
            )

    def write_pointer(self, address: int, value: int) -> None:
        """Write one ordinary pointer word (raw plane)."""
        self.check_pointer(value)
        self.space.pack_raw(self._pointer, address, (value,))
