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
from types import CodeType
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

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
from repro.xdr.raw import LONG_SLOT, FlatStep, WirePlan
from repro.xdr.stream import (
    IMAGES,
    INTERN_MAX_BYTES,
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

#: No DATA_REQUEST head decoded yet: an empty image, which no head is.
NO_HEAD = (b"", "", "")
#: No pool table read yet, on the same terms.
NO_POOL_HEAD = (b"", ())


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
    probed once in the intern table — or, when the batch opens with
    the same table as the last one this runtime applied, that table's
    pairs, ``SmartRpcRuntime.pool_head``), the item count, then the
    items.  Each item's handle is checked (non-NULL, known) where a
    run of items of one type starts; a run of flat items is applied by
    the loop generated for its type's :class:`~repro.xdr.raw.FlatStep`
    (:func:`_compile_apply`), which reads each item as one ``Struct``
    unpack, places the rows of its swizzle misses with one
    :meth:`~repro.smartrpc.cache.CacheManager.place_new` each and
    packs the datum straight into its placeholder page.  Every read is
    bounds checked first, so a cut batch raises the decoder's
    underflow error, and bytes past the last item are an
    :class:`XdrError`.  A union item goes through a stream decoder
    and a handle pool, built at the batch's first union item, the
    hook-driven codec, and swizzles through the session's swizzler.
    The counters and both ledgers move once, at the end, by what did
    land, should an item raise.
    """
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
    left = peek(view, pos)[0]
    pos += 4
    # Per pool handle, filled at the handle's first item or first new
    # row so a cold resolver queries the name server where it always
    # did: the type's plan, and the alignment of a placeholder for it.
    plans: List[Optional[WirePlan]] = [None] * known
    aligns: List[int] = [0] * known
    wire_plan_of = runtime.wire_plan
    site_id = runtime.site_id
    cache = state.cache
    seal = cache.datum_seal
    # What the item loops share, built at the batch's first flat run.
    loop = None
    # A stream decoder and a handle pool only for a union item.
    decoder = pool = None
    # Items applied, entries newly flagged shipped (none touched yet),
    # bytes of demanded roots, bytes of prefetch, resident duplicates.
    tally = [0, 0, 0, 0, 0]
    # Pages the batch completes turn READ in one pass at its end —
    # should an item raise, those completed before it still do.
    held: List[int] = []
    try:
        while left:
            if pos + 4 > end:
                raise underflow(4, end - pos)
            handle = peek(view, pos)[0]
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
            if flat is not None:
                if loop is None:
                    loop = (
                        known, pairs, plans, aligns, wire_plan_of, site_id,
                        cache.entry_for, cache.place_new,
                        state.swizzler.swizzle,
                        runtime.heap.allocation_based_at, cache.pages,
                        cache.page_size, runtime.space, runtime.codec.store,
                        cache.mark_resident, overwrite, demanded, held,
                        state.relayed_dirty, state.epoch, seal, tally,
                    )
                pos, left = (flat.apply_run or _compile_apply(flat))(
                    view, end, pos, left, handle, space_id, type_id, home,
                    plan.size, aligns[handle - 1], loop,
                )
                continue
            # A union item: its header, then the stream decoder.
            left -= 1
            if pos + _LONG.size > end:
                raise underflow(_LONG.size, end - pos)
            address = _LONG.unpack_from(view, pos)[1]
            pos += _LONG.size
            if not address:
                raise _zero_address()
            if decoder is None:
                decoder = XdrDecoder(view)
                pool = HandlePool(pairs)
            decoder.seek(pos)
            if home:
                # We are the home: the batch updates original data,
                # named by its allocation's base.
                if runtime.heap.allocation_based_at(address) is None:
                    raise SmartRpcError(
                        "batch updates dead home data "
                        f"{LongPointer(space_id, address, type_id)!r}"
                    )
                _decode_union(runtime, state, decoder, pool, address, type_id)
                pos = decoder.tell()
                tally[0] += 1
                continue
            key = (space_id, address, type_id)
            entry = cache.entry_for(key)
            if entry is None:
                entry = cache.place_new(
                    tuple.__new__(LongPointer, key),
                    plan.size,
                    aligns[handle - 1],
                )
            elif entry.resident and not overwrite:
                _skip(decoder, plan.steps, pool)
                pos = decoder.tell()
                tally[4] += 1
                if demanded is not None:
                    # The closure overshot into data this space holds:
                    # bytes that bought nothing score as prefetch.
                    tally[3] += entry.size
                continue
            _decode_union(
                runtime, state, decoder, pool, entry.local_address, type_id
            )
            pos = decoder.tell()
            tally[0] += 1
            cache.mark_resident(entry, held)
            if demanded is not None:
                prefetched = key not in demanded
                if not entry.shipped and not entry.touched:
                    tally[1] += 1
                entry.shipped = True
                entry.prefetched = prefetched
                tally[2 + prefetched] += entry.size
            if overwrite:
                state.relayed_dirty[entry] = state.epoch
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
        applied, untouched, demanded_bytes, prefetched, duplicates = tally
        stats = runtime.stats
        stats.entries_transferred += applied
        stats.duplicate_entries += duplicates
        cache.untouched_shipped += untouched
        if demanded is not None:
            for ledger in (state.transfer_stats, stats.transfer_ledger):
                ledger.closure_bytes_shipped += demanded_bytes + prefetched
                ledger.prefetch_bytes_shipped += prefetched
    return applied


#: Compiled item loops by source text, cleared when full.
_LOOP_CODE: Dict[str, CodeType] = {}
_LOOP_CODE_MAX = 256

#: Slot counts up to this get every wire ``Struct`` of the type bound
#: into its item loop, indexed by null mask; a type with more pointer
#: slots takes its mask's ``Struct`` from ``FlatStep.codecs``.
_BOUND_MASKS = 4


def _compile_apply(flat: FlatStep) -> Callable:
    """Generate the loop that applies a run of batch items of ``flat``.

    The loop takes the batch cursor (``view``, ``end``, ``pos``), the
    items left in the batch, the run's pool handle and what it names
    (space, type id, whether this space is the home, the type's size
    and placeholder alignment) and the batch's shared state (``loop``,
    built in :func:`apply_batch`).  It applies items while they carry
    ``handle`` and returns the cursor and the items left.  The step's
    wire layout is bound as constants: the wire offset of each slot's
    handle word, the value index of each slot, the wire ``Struct`` per
    null mask, the enum and pad checks and ``flat.native.pack_into``
    with every value written out.  So an item is read, checked,
    swizzled and packed in straight-line code: the checks, their
    order and their errors are those of one item as
    :func:`apply_batch` describes it, and the sums it keeps go into
    the batch's ``tally`` when the run ends, or raises.
    """
    slots = flat.slots
    env = {
        "_flat": flat,
        "_peek": _U32.unpack_from,
        "_underflow": underflow,
        "_zero_address": _zero_address,
        "_XdrError": XdrError,
        "_SmartRpcError": SmartRpcError,
        "_LongPointer": LongPointer,
        "_new": tuple.__new__,
        "_pack_into": flat.native.pack_into,
        "_struct_error": struct.error,
    }
    count = len(flat.native.unpack(bytes(flat.native.size)))
    # Each native value: a pointer slot's local address and its empty
    # filler, or the wire value at the same index past the header.
    values = [f"v[{index + 2}]" for index in range(count)]
    for j, index in enumerate(slots):
        values[index], values[index + 1] = f"p{j}", "b''"
    values = ", ".join(values)
    item = ["left -= 1"]
    if slots:
        # The handle words ahead say which slots carry a long pointer;
        # each one pushes the rest 8 bytes further.
        item += ["_s = 1", "_x = pos + 12"]
        for bit, offset in flat.slot_wire:
            item += [
                f"_a = _x + {offset}" if offset else "_a = _x",
                "if _a + 4 > end: raise _underflow(_a + 4 - pos, end - pos)",
                "if _peek(view, _a)[0]:",
                f" _s |= {bit}",
                " _x += 8",
            ]
        item += [
            f"_stop = _x + {flat.wire(0).size}",
            "if _stop > end: raise _underflow(_stop - pos, end - pos)",
        ]
        if len(slots) <= _BOUND_MASKS:
            env["_unpack"] = tuple(
                flat.wire(key).unpack_from if key & 1 else None
                for key in range(2 << len(slots))
            )
            item.append("v = _unpack[_s](view, pos)")
        else:
            env["_codecs"], env["_wire"] = flat.codecs, flat.wire
            item.append(
                "v = (_codecs.get(_s) or _wire(_s)).unpack_from(view, pos)"
            )
    else:
        size = flat.wire(1).size
        env["_unpack"] = flat.wire(1).unpack_from
        item += [
            f"_stop = pos + {size}",
            f"if _stop > end: raise _underflow({size}, end - pos)",
            "v = _unpack(view, pos)",
        ]
    item += [
        "pos = _stop",
        "address = v[1]",
        "if not address: raise _zero_address()",
    ]
    for j, index in enumerate(slots):
        item += [
            f"h{j} = v[{index + 2}]",
            f"if h{j}:",
            f" if h{j} > known: raise _XdrError("
            f"f'bad handle-pool handle {{h{j}!r}}')",
            f" if not v[{index + 3}]: raise _zero_address()",
        ]
    after = [  # the next item, if it is one of this run
        "if not left: break",
        "if pos + 4 > end: raise _underflow(4, end - pos)",
        "if _peek(view, pos)[0] != handle: break",
    ]
    item += [
        "if home:",
        # We are the home: the batch updates original data, named by
        # its allocation's base.
        " if allocation_based_at(address) is None: raise _SmartRpcError("
        "'batch updates dead home data '"
        " f'{_LongPointer(space_id, address, type_id)!r}')",
        " entry = None",
        "else:",
        " key = (space_id, address, type_id)",
        " entry = entry_for(key)",
        " if entry is None:",
        "  entry = place(_new(_LongPointer, key), size, align)",
        " elif entry.resident and not overwrite:",
        "  dupes += 1",
        "  if demanded is not None: extra += entry.size",
    ]
    item += ["  " + line for line in after] + ["  continue"]
    for n, (index, spec) in enumerate(flat.enums):
        env[f"_enum{n}"] = spec.name_of
        item.append(f"_enum{n}(v[{index + 2}])")
    for n, (index, zeros) in enumerate(flat.pads):
        env[f"_pad{n}"] = zeros
        item += [
            f"if v[{index + 2}] != _pad{n}: raise _XdrError("
            f"f'nonzero XDR padding {{bytes(v[{index + 2}])!r}}')",
        ]
    for j, index in enumerate(slots):
        item += [
            f"if h{j}:",
            f" _space, _type = pairs[h{j} - 1]",
            f" _key = (_space, v[{index + 3}], _type)",
            " if _space == site_id:",
            f"  p{j} = swizzle(_new(_LongPointer, _key))",
            " else:",
            "  _row = entry_for(_key)",
            "  if _row is None:",
            f"   _plan = plans[h{j} - 1]",
            "   if _plan is None:",
            f"    _plan = plans[h{j} - 1] = wire_plan_of(_type)",
            f"    aligns[h{j} - 1] = ("
            "_plan.alignment if _plan.alignment < 8 else 8)",
            "   _row = place(_new(_LongPointer, _key), _plan.size, "
            f"aligns[h{j} - 1])",
            f"  p{j} = _row.local_address",
            "else:",
            f" p{j} = 0",
        ]
    item += [
        "if entry is None:",
        f" store(_flat, address, ({values},))",
        " applied += 1",
        "else:",
        " if entry.size > page_size:",  # a span, as place_new made it
        f"  store(_flat, entry.local_address, ({values},))",
        "  applied += 1",
        "  if not entry.resident: mark_resident(entry, held)",
        " else:",
        # Straight into the placeholder's page buffer, backed only as
        # far as written: growing rebinds it, which moves the space's
        # generation (AddressSpace._grow).
        "  number = entry.page_number",
        "  page = pages[number]",
        "  buffer = page.data",
        f"  _at = entry.offset + {flat.offset}" if flat.offset
        else "  _at = entry.offset",
        f"  _end = _at + {flat.native.size}",
        "  if not buffer:",
        "   page.data = buffer = bytearray(_end)",
        "   space.generation += 1",
        "  elif _end > len(buffer):",
        "   _grown = bytearray(_end)",
        "   _grown[:len(buffer)] = buffer",
        "   page.data = buffer = _grown",
        "   space.generation += 1",
        "  try:",
        f"   _pack_into(buffer, _at, {values})",
        "  except _struct_error:",  # names the misfit
        f"   store(_flat, entry.local_address, ({values},))",
        "  applied += 1",
        "  if not entry.resident:",
        "   entry.resident = True",
        "   for _row in page:",
        "    if not _row.resident: break",
        "   else:",
        "    page.closed = True",
        "    if not page.dirty: held.append(number)",
        " if demanded is not None:",
        "  if not entry.shipped and not entry.touched: untouched += 1",
        "  entry.shipped = True",
        "  if key in demanded:",
        "   entry.prefetched = False",
        "   wanted += entry.size",
        "  else:",
        "   entry.prefetched = True",
        "   extra += entry.size",
        # Dirty data stays part of the modified data set here too, so
        # it keeps travelling with the thread of control, stamped with
        # the epoch it arrived in.
        " if overwrite: relayed[entry] = epoch",
        # One datum's frontier children share placeholder pages; the
        # next datum's children start fresh ones (locality grouping).
        " if seal is not None: seal()",
    ] + after
    source = "\n".join(
        [
            "def apply_run(view, end, pos, left, handle, space_id, type_id,"
            " home, size, align, loop):",
            " (known, pairs, plans, aligns, wire_plan_of, site_id,"
            " entry_for, place, swizzle, allocation_based_at, pages,"
            " page_size, space, store, mark_resident, overwrite, demanded,"
            " held, relayed, epoch, seal, tally) = loop",
            " applied = untouched = wanted = extra = dupes = 0",
            " try:",
            "  while True:",
        ]
        + ["   " + line for line in item]
        + [
            " finally:",
            "  tally[0] += applied",
            "  tally[1] += untouched",
            "  tally[2] += wanted",
            "  tally[3] += extra",
            "  tally[4] += dupes",
            " return pos, left",
        ]
    )
    # The source is a function of the layout alone, and every runtime
    # resolves its own spec objects: compile each source once.
    code = _LOOP_CODE.get(source)
    if code is None:
        if len(_LOOP_CODE) >= _LOOP_CODE_MAX:
            _LOOP_CODE.clear()
        code = compile(source, "<batch item loop>", "exec")
        _LOOP_CODE[source] = code
    exec(code, env)
    flat.apply_run = env["apply_run"]
    return flat.apply_run


def _zero_address() -> XdrError:
    return XdrError("long pointer address must be positive, got 0")


def _decode_union(
    runtime: "SmartRpcRuntime",
    state: "SmartSessionState",
    decoder: XdrDecoder,
    pool: HandlePool,
    target: int,
    type_id: str,
) -> None:
    """Decode one union item's value (at ``decoder``'s position) into
    ``target``: the hook-driven codec dispatches its arm, and each long
    pointer swizzles through the session's swizzler."""
    swizzle = state.swizzler.swizzle

    def pointer_in(_target: str) -> int:
        return swizzle(decode_long_pointer_pooled(decoder, pool))

    runtime.codec.decode(
        decoder, target, runtime.resolver.resolve(type_id), pointer_in
    )


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


def read_request_head(payload: bytes, known: tuple = NO_HEAD) -> tuple:
    """The head of one DATA_REQUEST payload, ``(image, session id,
    ground site)``, and the offset just past it.

    ``known`` is a head read before.  A payload that opens with its
    image names the same two strings — an XDR string is self-delimiting
    — so ``known`` itself is the answer: a home keeps its last one
    (``SmartRpcRuntime.request_head``), and every request of a session
    opens with the same head.  Otherwise one cursor pass, as
    :func:`apply_batch` reads a batch: each string goes through
    :func:`~repro.xdr.stream.read_string` (its image sliced whole and
    probed once in the intern table), and a cut head is the decoder's
    underflow error.  A head image over ``INTERN_MAX_BYTES`` is not
    kept: the head returned has an empty image, which matches nothing.
    """
    image = known[0]
    pos = len(image)
    if pos and payload[:pos] == image:
        return known, pos
    size = len(payload)
    session_id, pos = read_string(payload, 0, size)
    ground_site, pos = read_string(payload, pos, size)
    image = bytes(payload[:pos]) if pos <= INTERN_MAX_BYTES else b""
    return (image, session_id, ground_site), pos


def read_request_tail(payload: bytes, pos: int) -> tuple:
    """``(budget, order code, addresses)`` of the DATA_REQUEST payload
    whose head ends at ``pos``: one ``Struct``.  A cut tail is the
    decoder's underflow error, and bytes past it are an
    :class:`XdrError`."""
    size = len(payload)
    rest = size - pos - 12
    tail = _request_tail(rest // 8 if rest > 0 else 0)
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
    return budget, order_code, addresses


def decode_request_payload(payload: bytes) -> tuple:
    """``(session id, ground site, budget, order code, addresses)`` of
    one DATA_REQUEST payload: its head
    (:func:`read_request_head`), then its tail
    (:func:`read_request_tail`)."""
    (_image, session_id, ground_site), pos = read_request_head(payload)
    return (session_id, ground_site) + read_request_tail(payload, pos)


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
    # The head as decode_request_payload reads it, through the memo.
    head, pos = read_request_head(payload, runtime.request_head)
    runtime.request_head = head
    budget, order_code, addresses = read_request_tail(payload, pos)
    state = runtime.ensure_smart_session(head[1], head[2])
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
