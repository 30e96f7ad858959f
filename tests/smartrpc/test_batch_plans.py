"""The plan-driven batch functions against the per-field ones.

``encode_batch``/``apply_batch`` move one datum with one ``Struct``
each way; ``tests/xdr/reference_codec.py`` keeps the functions they
replaced.  Here both run on real workload data — a list slice, a tree
slice, a hash-bucket slice — and must agree byte for byte and entry
for entry, and every check the per-field code made must still raise.
"""

import pytest

from repro.memory.page import Protection
from repro.namesvc.client import TypeResolver
from repro.simnet.network import Network
from repro.smartrpc import transfer
from repro.smartrpc.closure import (
    BREADTH_FIRST,
    DEPTH_FIRST,
    ClosureWalker,
)
from repro.smartrpc.errors import (
    DanglingPointerError,
    SmartRpcError,
    SwizzleError,
)
from repro.smartrpc.hints import ClosureHints
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.smartrpc.long_pointer import (
    PROVISIONAL_BASE,
    HandlePool,
    LongPointer,
)
from repro.workloads.hashtable import (
    HASH_NODE_TYPE_ID,
    HASH_TABLE_TYPE_ID,
    build_hash_table,
)
from repro.workloads.linked_list import LIST_NODE_TYPE_ID, build_list
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.xdr.arch import SPARC32
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import EnumType, Field, StructType, UnionType, int32
from tests.conftest import SmartPair
from tests.smartrpc.reference_closure import two_pass_encode_batch
from tests.xdr.reference_codec import (
    Item,
    reference_apply_batch,
    reference_encode_batch,
)

SESSION = "sess"


#: Hints that name every pointer field, some out of declaration order:
#: the walk reads through the hint path and must ship the same bytes
#: the reference encoder produces for its items.
HINTS = {
    "list": {LIST_NODE_TYPE_ID: ["next"]},
    "tree": {TREE_NODE_TYPE_ID: ["right", "left"]},
    "hash": {HASH_TABLE_TYPE_ID: ["buckets"], HASH_NODE_TYPE_ID: ["next"]},
}


def build_slice(pair: SmartPair, kind: str, walk: str = "bfs"):
    """Workload data at A and the closure slice a request would ship.

    ``walk`` is ``bfs`` (the default walk), ``dfs`` or ``hinted`` (a
    breadth-first walk under :data:`HINTS`).  The slice comes back as
    one :class:`Item` per datum the walk emitted, in batch order.
    """
    home = pair.a
    if kind == "list":
        root = build_list(home, list(range(-20, 20)))
        budget = 25 * 8
    elif kind == "tree":
        root = build_complete_tree(home, 31)
        budget = 12 * 16
    else:
        root, _ = build_hash_table(home, [3 * k + 1 for k in range(40)])
        budget = 1024 + 10 * 32  # the bucket array and ten chain nodes
    state = home.ensure_smart_session(SESSION, "A")
    hints = None
    if walk == "hinted":
        hints = ClosureHints()
        for hinted, fields in HINTS[kind].items():
            hints.follow(hinted, fields)
    walker = ClosureWalker(
        home,
        state,
        budget,
        order=DEPTH_FIRST if walk == "dfs" else BREADTH_FIRST,
        hints=hints,
    )
    addresses = walker.walk([root])
    assert len(addresses) > 5
    items = [
        Item(
            LongPointer(
                "A", address, home.heap.allocation_based_at(address).type_id
            ),
            address,
        )
        for address in addresses
    ]
    return state, walker, items


def cache_image(runtime, state):
    """What a batch leaves behind at a receiver, comparable."""
    page_size = runtime.space.page_size
    return {
        "table": [
            (
                tuple(entry.pointer),
                entry.local_address,
                entry.size,
                entry.resident,
                entry.shipped,
                entry.prefetched,
            )
            for entry in state.cache.table
        ],
        "pages": {
            number: runtime.space.read_raw(number * page_size, page_size)
            for number in state.cache.table.pages()
        },
        # The batch releases its pages in one pass; the reference one
        # page at a time.  Both must end on the same protections.
        "protections": {
            number: runtime.space.protection_of(number)
            for number in state.cache.table.pages()
        },
        "session_ledger": state.transfer_stats.as_dict(),
        "ledger": runtime.stats.transfer_ledger.as_dict(),
        "entries": runtime.stats.entries_transferred,
        "duplicates": runtime.stats.duplicate_entries,
        "relayed": sorted(tuple(e.pointer) for e in state.relayed_dirty),
    }


KINDS = ("list", "tree", "hash")


#: Every kind under the default walk (ids ``list`` ...), then under a
#: depth-first and a hinted one (ids ``list-dfs``, ``list-hinted`` ...).
WALKS = [
    pytest.param(kind, walk, id=kind if walk == "bfs" else f"{kind}-{walk}")
    for walk in ("bfs", "dfs", "hinted")
    for kind in KINDS
]


@pytest.mark.parametrize("kind, walk", WALKS)
class TestEncodeMatchesReference:
    def test_home_slice(self, kind, walk):
        # The walk packs each datum as it emits it; the reference
        # encoder reads every datum from the heap again instead.
        pair = SmartPair(Network())
        state, walker, items = build_slice(pair, kind, walk)
        assert two_pass_encode_batch(pair.a, state, items) == walker.batch
        want = reference_encode_batch(pair.a, state, items)
        assert transfer.encode_batch(pair.a, state, items) == want
        # The walk's own batch, as a data request ships it.
        assert walker.batch == want

    def test_cached_slice_ships_back(self, kind, walk):
        # The callee's cached copies unswizzle through its allocation
        # table, frontier placeholders included (piggyback, write-back).
        pair = SmartPair(Network())
        state_a, _, items = build_slice(pair, kind, walk)
        state_b = pair.b.ensure_smart_session(SESSION, "A")
        transfer.apply_batch(
            pair.b, state_b, transfer.encode_batch(pair.a, state_a, items), False
        )
        cached = [entry for entry in state_b.cache.table if entry.resident]
        assert len(cached) == len(items)
        back = transfer.encode_batch(pair.b, state_b, cached)
        assert back == reference_encode_batch(pair.b, state_b, cached)


@pytest.mark.parametrize("kind", KINDS)
class TestApplyMatchesReference:
    def apply_both(self, kind, scenario):
        images = []
        for apply in (transfer.apply_batch, reference_apply_batch):
            pair = SmartPair(Network())
            state_a, _, items = build_slice(pair, kind)
            state_b = pair.b.ensure_smart_session(SESSION, "A")
            result = scenario(pair, state_a, state_b, items, apply)
            images.append((result, cache_image(pair.b, state_b)))
        assert images[0] == images[1]
        return images[0]

    def test_fresh_fill(self, kind):
        def scenario(pair, state_a, state_b, items, apply):
            batch = transfer.encode_batch(pair.a, state_a, items)
            demanded = {items[0].pointer}
            return apply(pair.b, state_b, batch, False, demanded)

        applied, image = self.apply_both(kind, scenario)
        assert applied > 5
        ledger = image["session_ledger"]
        assert ledger["closure_bytes_shipped"] > ledger["prefetch_bytes_shipped"] > 0

    def test_resident_duplicates_are_skipped(self, kind):
        def scenario(pair, state_a, state_b, items, apply):
            first = transfer.encode_batch(pair.a, state_a, items[:4])
            apply(pair.b, state_b, first, False, {items[0].pointer})
            # The second reply overlaps the first by four items.
            second = transfer.encode_batch(pair.a, state_a, items)
            return apply(pair.b, state_b, second, False, {items[4].pointer})

        applied, image = self.apply_both(kind, scenario)
        assert image["duplicates"] == 4
        assert applied == image["entries"] - 4

    def test_overwrite_lands_on_resident_data(self, kind):
        def scenario(pair, state_a, state_b, items, apply):
            batch = transfer.encode_batch(pair.a, state_a, items)
            apply(pair.b, state_b, batch, False, {items[0].pointer})
            return apply(pair.b, state_b, batch, True)

        applied, image = self.apply_both(kind, scenario)
        assert image["duplicates"] == 0
        assert len(image["relayed"]) == applied

    def test_one_item_batch(self, kind):
        def scenario(pair, state_a, state_b, items, apply):
            batch = transfer.encode_batch(pair.a, state_a, items[:1])
            return apply(pair.b, state_b, batch, False, {items[0].pointer})

        applied, image = self.apply_both(kind, scenario)
        assert applied == 1
        assert image["session_ledger"]["prefetch_bytes_shipped"] == 0

    def test_home_update(self, kind):
        # B ships its (modified) cached copies back; A applies them to
        # the originals.  Both implementations must leave A's heap the
        # same, pointers re-swizzled to the original addresses.
        heaps = []
        for apply in (transfer.apply_batch, reference_apply_batch):
            pair = SmartPair(Network())
            state_a, _, items = build_slice(pair, kind)
            state_b = pair.b.ensure_smart_session(SESSION, "A")
            transfer.apply_batch(
                pair.b,
                state_b,
                transfer.encode_batch(pair.a, state_a, items),
                False,
            )
            cached = []
            for entry in state_b.cache.table:
                if not entry.resident:
                    continue
                if entry.pointer.type_id != HASH_TABLE_TYPE_ID:
                    # Every node type ends in a scalar: modify it.
                    last = entry.local_address + entry.size - 1
                    flipped = pair.b.space.read_raw(last, 1)[0] ^ 0x55
                    pair.b.space.write_raw(last, bytes([flipped]))
                cached.append(entry)
            back = transfer.encode_batch(pair.b, state_b, cached)
            before = pair.a.stats.entries_transferred
            assert apply(pair.a, state_a, back, True) == len(cached)
            assert pair.a.stats.entries_transferred == before + len(cached)
            assert len(state_a.cache.table) == 0
            heaps.append([
                pair.a.space.read_raw(
                    item.local_address,
                    pair.a.wire_plan(item.pointer.type_id).size,
                )
                for item in items
            ])
        assert heaps[0] == heaps[1]


# -- every check stays ---------------------------------------------------------

COLOR = EnumType("color", {"RED": 0, "GREEN": 1})
PAINTED = StructType("painted", [Field("c", COLOR), Field("v", int32)])
SHAPE = StructType(
    "shape",
    [
        Field("u", UnionType("u", COLOR, {"RED": int32, "GREEN": int32})),
        Field("v", int32),
    ],
)


@pytest.fixture
def worlds(smart_pair):
    for runtime in (smart_pair.a, smart_pair.b):
        runtime.resolver.register("painted", PAINTED)
        runtime.resolver.register("shape", SHAPE)
    root = build_complete_tree(smart_pair.a, 7)
    state_a = smart_pair.a.ensure_smart_session(SESSION, "A")
    state_b = smart_pair.b.ensure_smart_session(SESSION, "A")
    return smart_pair, root, state_a, state_b


def tree_item(runtime, address):
    return Item(LongPointer("A", address, TREE_NODE_TYPE_ID), address)


def batch_of(pool_pairs, count, body: bytes) -> bytes:
    pool = HandlePool()
    for space_id, type_id in pool_pairs:
        pool.intern(space_id, type_id)
    encoder = XdrEncoder()
    encoder.pack_fixed_opaque(pool.head())
    encoder.pack_uint32(count)
    return encoder.getvalue() + body


def typed_datum(runtime, type_id, words):
    """A heap datum of ``type_id`` holding 32-bit ``words``."""
    spec = runtime.resolver.resolve(type_id)
    address = runtime.heap.malloc(spec.sizeof(runtime.arch), type_id)
    for index, word in enumerate(words):
        runtime.space.write_raw(
            address + 4 * index,
            word.to_bytes(4, runtime.arch.byteorder, signed=True),
        )
    return Item(LongPointer("A", address, type_id), address)


class TestEveryCheckStays:
    def test_null_item_pointer(self, worlds):
        pair, _, _, state_b = worlds
        body = XdrEncoder()
        body.pack_uint32(0)
        with pytest.raises(SmartRpcError, match="NULL long pointer"):
            transfer.apply_batch(
                pair.b, state_b, batch_of([], 1, body.getvalue()), False
            )

    def test_dead_home_data(self, worlds):
        pair, root, state_a, _ = worlds
        batch = transfer.encode_batch(pair.a, state_a, [tree_item(pair.a, root)])
        pair.a.heap.free(root)
        with pytest.raises(SmartRpcError, match="dead home data"):
            transfer.apply_batch(pair.a, state_a, batch, True)

    @pytest.mark.parametrize("where", ["item", "field"])
    def test_bad_pool_handle(self, worlds, where):
        pair, _, _, state_b = worlds
        body = XdrEncoder()
        body.pack_uint32(1 if where == "field" else 7)
        body.pack_uint64(64)
        body.pack_uint32(7 if where == "field" else 0)  # next
        if where == "field":
            body.pack_uint64(128)
        body.pack_int32(5)  # value
        batch = batch_of([("A", LIST_NODE_TYPE_ID)], 1, body.getvalue())
        with pytest.raises(XdrError, match="bad handle-pool handle"):
            transfer.apply_batch(pair.b, state_b, batch, False)

    @pytest.mark.parametrize("where", ["item", "slot"])
    def test_zero_address_places_no_row(self, worlds, where):
        pair, _, _, state_b = worlds
        body = XdrEncoder()
        body.pack_uint32(1)
        body.pack_uint64(0 if where == "item" else 64)
        body.pack_uint32(1)  # next: a long pointer
        body.pack_uint64(0 if where == "slot" else 128)
        body.pack_int32(5)  # value
        batch = batch_of([("A", LIST_NODE_TYPE_ID)], 1, body.getvalue())
        with pytest.raises(XdrError, match="address must be positive"):
            transfer.apply_batch(pair.b, state_b, batch, False)
        assert len(state_b.cache.table) == 0

    def test_bad_pool_handle_in_a_skipped_item(self, worlds):
        pair, _, _, state_b = worlds
        body = XdrEncoder()
        for next_handle in (0, 7):
            body.pack_uint32(1)
            body.pack_uint64(64)
            body.pack_uint32(next_handle)
            if next_handle:
                body.pack_uint64(128)
            body.pack_int32(5)
        batch = batch_of([("A", LIST_NODE_TYPE_ID)], 2, body.getvalue())
        with pytest.raises(XdrError, match="bad handle-pool handle"):
            transfer.apply_batch(pair.b, state_b, batch, False)

    def test_failing_batch_still_releases_what_it_completed(self, worlds):
        pair, root, state_a, state_b = worlds
        item = tree_item(pair.a, root)
        entry = state_b.cache.ensure_entry(item.pointer)
        state_b.cache.datum_seal()  # sealed, as after one applied datum
        batch = transfer.encode_batch(pair.a, state_a, [item])
        with pytest.raises(XdrError, match="trailing"):
            transfer.apply_batch(pair.b, state_b, batch + bytes(4), False)
        assert entry.resident
        assert pair.b.space.protection_of(entry.page_number) is Protection.READ

    def test_trailing_bytes(self, worlds):
        pair, root, state_a, state_b = worlds
        batch = transfer.encode_batch(pair.a, state_a, [tree_item(pair.a, root)])
        with pytest.raises(XdrError, match="trailing"):
            transfer.apply_batch(pair.b, state_b, batch + bytes(4), False)

    def test_truncated_batch(self, worlds):
        pair, root, state_a, state_b = worlds
        batch = transfer.encode_batch(pair.a, state_a, [tree_item(pair.a, root)])
        for cut in (4, 12, 20):
            with pytest.raises(XdrError, match="underflow"):
                transfer.apply_batch(pair.b, state_b, batch[:-cut], False)

    def test_provisional_item_pointer(self, worlds):
        pair, root, state_a, _ = worlds
        item = tree_item(pair.a, root)
        item = item._replace(
            pointer=item.pointer.with_address(PROVISIONAL_BASE + 8)
        )
        with pytest.raises(XdrError, match="provisional"):
            transfer.encode_batch(pair.a, state_a, [item])

    def test_provisional_field_pointer(self, worlds):
        pair, root, state_a, state_b = worlds
        # B allocates remotely before the batch flushed: the entry's
        # home address is still provisional when a parent ships.
        fresh = state_b.cache.allocate_fresh(
            LongPointer("A", PROVISIONAL_BASE + 16, TREE_NODE_TYPE_ID), 24
        )
        transfer.apply_batch(
            pair.b,
            state_b,
            transfer.encode_batch(pair.a, state_a, [tree_item(pair.a, root)]),
            False,
        )
        entry = state_b.cache.table.entry_for(
            LongPointer("A", root, TREE_NODE_TYPE_ID)
        )
        pair.b.codec.write_pointer(entry.local_address, fresh.local_address)
        with pytest.raises(SmartRpcError, match="leaked onto the wire"):
            transfer.encode_batch(pair.b, state_b, [entry])

    def test_interior_pointer(self, worlds):
        pair, root, state_a, _ = worlds
        left = pair.a.codec.read_pointer(root)
        pair.a.codec.write_pointer(root, left + 4)
        with pytest.raises(SwizzleError, match="interior pointer"):
            transfer.encode_batch(pair.a, state_a, [tree_item(pair.a, root)])

    def test_dangling_home_pointer_in_a_field(self, worlds):
        pair, root, state_a, _ = worlds
        # A batch arriving at A names a child that A no longer holds.
        back = transfer.encode_batch(pair.a, state_a, [tree_item(pair.a, root)])
        pair.a.heap.free(pair.a.codec.read_pointer(root))
        with pytest.raises(DanglingPointerError):
            transfer.apply_batch(pair.a, state_a, back, True)

    def test_pointer_too_wide_for_the_machine(self, worlds):
        pair, _, _, _ = worlds
        spec = pair.a.resolver.resolve(LIST_NODE_TYPE_ID)
        address = pair.a.heap.malloc(spec.sizeof(pair.a.arch), LIST_NODE_TYPE_ID)
        encoder = XdrEncoder()
        encoder.pack_int32(1)
        with pytest.raises(XdrError, match="does not fit in 4 bytes"):
            pair.a.codec.decode(
                XdrDecoder(encoder.getvalue()), address, spec, lambda _t: 1 << 32
            )

    def test_enum_membership_both_ways(self, worlds):
        pair, _, state_a, state_b = worlds
        bad = typed_datum(pair.a, "painted", [9, 1])
        with pytest.raises(XdrError, match="not a member of enum"):
            transfer.encode_batch(pair.a, state_a, [bad])
        good = typed_datum(pair.a, "painted", [1, 1])
        batch = bytearray(transfer.encode_batch(pair.a, state_a, [good]))
        batch[-8:-4] = (9).to_bytes(4, "big")
        with pytest.raises(XdrError, match="not a member of enum"):
            transfer.apply_batch(pair.b, state_b, bytes(batch), False)

    def test_unknown_union_discriminant_both_ways(self, worlds):
        pair, _, state_a, state_b = worlds
        bad = typed_datum(pair.a, "shape", [9, 1, 1])
        with pytest.raises(XdrError, match="not a member of enum"):
            transfer.encode_batch(pair.a, state_a, [bad])
        good = typed_datum(pair.a, "shape", [1, 7, 1])
        batch = transfer.encode_batch(pair.a, state_a, [good])
        assert batch == reference_encode_batch(pair.a, state_a, [good])
        broken = bytearray(batch)
        broken[-12:-8] = (9).to_bytes(4, "big")
        with pytest.raises(XdrError, match="not a member of enum"):
            transfer.apply_batch(pair.b, state_b, bytes(broken), False)
        # Intact, the union datum fills, and a second copy is skipped.
        assert transfer.apply_batch(pair.b, state_b, batch, False) == 1
        assert transfer.apply_batch(pair.b, state_b, batch, False) == 0

    def test_type_resolves_at_first_use(self, worlds):
        pair, root, state_a, _ = worlds
        # A runtime that has never met the type queries the name server
        # once, when the first item of that type arrives: the item's
        # type and its children's are the same id here.
        pair.name_server.publish(
            TREE_NODE_TYPE_ID, pair.a.resolver.resolve(TREE_NODE_TYPE_ID)
        )
        site = pair.network.add_site("C")
        cold = SmartRpcRuntime(
            pair.network, site, SPARC32, resolver=TypeResolver(site, "NS")
        )
        state_c = cold.ensure_smart_session(SESSION, "A")
        batch = transfer.encode_batch(pair.a, state_a, [tree_item(pair.a, root)])
        assert transfer.apply_batch(cold, state_c, batch, False) == 1
        assert cold.resolver.queries_sent == 1
        assert len(state_c.cache.table) == 3


# -- a cut batch ----------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS + ("union",))
def test_every_truncation_point_raises_xdr_error(kind):
    """Cut anywhere, a batch fails with the decoder's underflow error —
    never a ``struct.error`` or an ``IndexError`` — and the pages the
    items before the cut completed are released all the same."""
    pair = SmartPair(Network())
    if kind == "union":
        # Union items (the decoder's path) between flat ones (the
        # cursor's): the read position passes back and forth.
        for runtime in (pair.a, pair.b):
            runtime.resolver.register("painted", PAINTED)
            runtime.resolver.register("shape", SHAPE)
        state_a = pair.a.ensure_smart_session(SESSION, "A")
        items = [
            typed_datum(pair.a, type_id, [k % 2, k, k])
            for k in range(4)
            for type_id in ("shape", "painted")
        ]
    else:
        state_a, _, items = build_slice(pair, kind)
    batch = transfer.encode_batch(pair.a, state_a, items)
    released = 0
    for cut in range(len(batch)):
        state_b = pair.b.ensure_smart_session(f"cut-{cut}", "A")
        with pytest.raises(XdrError, match="underflow"):
            transfer.apply_batch(pair.b, state_b, batch[:cut], False)
        for number, page in state_b.cache.pages.items():
            want = Protection.READ if page.complete else Protection.NONE
            assert pair.b.space.protection_of(number) is want, cut
            released += page.complete
        state_b.release()
    # The hash slice leaves every page short of a chain node it did not
    # ship; the others complete pages well before their last item.
    assert released or kind == "hash"
