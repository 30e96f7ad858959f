"""A batch's head read in one cursor pass.

``apply_batch`` reads the pool table (:func:`read_pool_head`, each
string through :func:`~repro.xdr.stream.read_string`) and the item
count with the same explicit bound checks as its item loop, and
``encode_batch`` takes the table's image from :meth:`HandlePool.head`,
memoised per pair tuple.  Every cut of a head or of a one-item batch
must be the decoder's underflow error — never a ``struct.error`` or an
``IndexError`` — and the stream decoder the cursor replaced
(``tests/xdr/reference_codec.py``) must agree with it on any head,
flipped, cut or extended.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smartrpc import transfer
from repro.smartrpc.long_pointer import HandlePool, LongPointer, read_pool_head
from repro.workloads.linked_list import LIST_NODE_TYPE_ID, build_list
from repro.xdr.errors import XdrError
from repro.xdr.stream import INTERN_MAX_BYTES, XdrDecoder, read_string
from tests.xdr.reference_codec import Item, reference_decode_pool

UNDERFLOW = "^XDR underflow"
_U32 = struct.Struct(">I")

POOLS = [
    [],
    [("A", LIST_NODE_TYPE_ID)],
    [("A", "t1"), ("B", "tree_node"), ("sité", "ünïcode_type")],
    [("A", "x" * 300)],  # longer than the intern table takes
]


def _image(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw + bytes(-len(raw) % 4)


def _head(pairs) -> bytes:
    """The pool table's image, built by hand."""
    return _U32.pack(len(pairs)) + b"".join(
        _image(text) for pair in pairs for text in pair
    )


@pytest.mark.parametrize("pairs", POOLS, ids=["empty", "one", "three", "long"])
def test_a_head_round_trips(pairs):
    head = HandlePool(pairs).head()
    assert head == _head(pairs)
    assert read_pool_head(head, len(head)) == (pairs, len(head))
    extended = head + bytes(8)
    assert read_pool_head(memoryview(extended), len(extended)) == (
        pairs,
        len(head),
    )


def test_a_head_image_is_memoised_per_pair_tuple():
    first = HandlePool([("A", "t1"), ("B", "t2")])
    second = HandlePool()
    second.intern("A", "t1")
    second.intern("B", "t2")
    assert first.head() is second.head()
    second.intern("C", "t3")
    assert second.head() == _head([("A", "t1"), ("B", "t2"), ("C", "t3")])


def test_a_head_over_the_intern_limit_is_not_memoised():
    pairs = [("A", "t" * INTERN_MAX_BYTES)]
    head = HandlePool(pairs).head()
    assert head == _head(pairs)
    assert HandlePool(pairs).head() is not head


@pytest.mark.parametrize("pairs", POOLS, ids=["empty", "one", "three", "long"])
def test_every_cut_of_a_head_underflows(pairs):
    head = HandlePool(pairs).head()
    for cut in range(len(head)):
        with pytest.raises(XdrError, match=UNDERFLOW):
            read_pool_head(head[:cut], cut)


def _unique(tag: str) -> str:
    """A string no intern table has met, so its image is checked."""
    _unique.serial += 1
    return f"{tag}-{_unique.serial}"


_unique.serial = 0


def test_an_uninterned_string_with_nonzero_padding_is_rejected():
    text = _unique("pad")
    while len(text) % 4 != 1:  # three bytes of padding
        text += "x"
    head = bytearray(_head([("A", text)]))
    head[-1] = 1
    with pytest.raises(XdrError, match="nonzero XDR padding"):
        read_pool_head(bytes(head), len(head))


def test_an_uninterned_string_of_bad_utf8_is_rejected():
    head = _U32.pack(1) + _image("A") + _U32.pack(2) + b"\xff\xfe\x00\x00"
    with pytest.raises(XdrError, match="bad XDR string"):
        read_pool_head(head, len(head))


def test_a_string_extent_past_the_end_underflows():
    image = _image(_unique("extent"))
    grown = _U32.pack(_U32.unpack_from(image)[0] + 4) + image[4:]
    head = _U32.pack(1) + _image("A") + grown
    with pytest.raises(XdrError, match=UNDERFLOW):
        read_pool_head(head, len(head))
    with pytest.raises(XdrError, match=UNDERFLOW):
        read_string(grown, 0, len(grown))


# -- through apply_batch ------------------------------------------------------


@pytest.fixture
def one_item(smart_pair):
    """A one-node batch encoded at A, and a way to apply it at B in a
    fresh session each time."""
    pair = smart_pair
    head = build_list(pair.a, [7])
    state_a = pair.a.ensure_smart_session("enc", "A")
    item = Item(LongPointer("A", head, LIST_NODE_TYPE_ID), head)
    batch = transfer.encode_batch(pair.a, state_a, [item])
    sessions = iter(range(1 << 30))

    def apply(payload):
        state = pair.b.ensure_smart_session(f"s{next(sessions)}", "A")
        return transfer.apply_batch(pair.b, state, payload, False)

    return batch, apply


def test_a_one_item_batch_applies(one_item):
    batch, apply = one_item
    assert apply(batch) == 1
    assert apply(memoryview(batch)) == 1


def test_every_cut_of_a_one_item_batch_underflows(one_item):
    batch, apply = one_item
    for cut in range(len(batch)):
        with pytest.raises(XdrError, match=UNDERFLOW):
            apply(batch[:cut])


@pytest.mark.parametrize("extra", [1, 4, 7])
def test_trailing_bytes_after_a_batch_are_rejected(one_item, extra):
    batch, apply = one_item
    with pytest.raises(XdrError, match=f"^{extra} trailing bytes"):
        apply(batch + bytes(extra))


def test_a_handle_above_the_pool_size_is_rejected(one_item):
    batch, apply = one_item
    pairs, pos = read_pool_head(batch, len(batch))
    item = pos + 4  # past the item count
    bad = bytearray(batch)
    bad[item : item + 4] = _U32.pack(len(pairs) + 1)
    with pytest.raises(XdrError, match="bad handle-pool handle"):
        apply(bytes(bad))


# -- against the stream decoder -----------------------------------------------


def _production(data: bytes):
    try:
        return read_pool_head(data, len(data))
    except XdrError as exc:
        return str(exc)


def _reference(data: bytes):
    decoder = XdrDecoder(data)
    try:
        pool = reference_decode_pool(decoder)
    except XdrError as exc:
        return str(exc)
    return pool.pairs, decoder.tell()


texts = st.text(max_size=9)
pools = st.lists(st.tuples(texts, texts), max_size=3)


@st.composite
def mangled_heads(draw):
    head = bytearray(HandlePool(draw(pools)).head())
    how = draw(st.sampled_from(["flip", "cut", "extend"]))
    if how == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(head) - 1))
            head[at] ^= draw(st.integers(1, 255))
    elif how == "cut":
        del head[draw(st.integers(0, len(head))) :]
    else:
        head += draw(st.binary(min_size=1, max_size=12))
    return bytes(head)


@settings(max_examples=400, deadline=None)
@given(mangled_heads())
def test_the_cursor_agrees_with_the_stream_decoder(data):
    assert _production(data) == _reference(data)
