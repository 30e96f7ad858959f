"""A DATA_REQUEST head is decoded in one cursor pass.

``transfer.decode_request_payload`` reads the two string images and
the tail ``Struct`` by offset.  It must return what the stream decoder
read from the same bytes, and reject whatever it rejected — a cut
head, bytes past the tail, a root count that disagrees with the roots,
a bad string image — as an :class:`XdrError`.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smartrpc import transfer
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST
from repro.smartrpc.long_pointer import LongPointer
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder


def stream_decode(payload):
    """The head as the stream decoder read it before the cursor pass."""
    decoder = XdrDecoder(payload)
    session_id = decoder.unpack_string()
    ground_site = decoder.unpack_string()
    tail = transfer._request_tail(max(decoder.remaining - 12, 0) // 8)
    budget, order_code, count, *addresses = decoder.unpack_struct(tail)
    decoder.expect_done()
    if count != len(addresses):
        raise XdrError("count disagrees")
    return session_id, ground_site, budget, order_code, addresses


def encoded(addresses, budget=64, order=BREADTH_FIRST, session="s-1x"):
    state = SimpleNamespace(session_id=session, ground_site="A")
    pointers = [LongPointer("B", address, "node") for address in addresses]
    return transfer.encode_request_payload(
        state, "B", pointers, budget, order
    )


@pytest.mark.parametrize("roots", [[], [0x1000], [0x1000, 0x2010, 0x30]])
def test_a_head_round_trips(roots):
    payload = encoded(roots, budget=7, order=DEPTH_FIRST)
    assert transfer.decode_request_payload(payload) == (
        "s-1x", "A", 7, 1, roots
    )
    assert transfer.decode_request_payload(payload) == stream_decode(payload)


def test_every_cut_and_every_extension_is_rejected():
    payload = encoded([0x1000, 0x2010], session="a-session-id")
    for cut in range(len(payload)):
        with pytest.raises(XdrError):
            transfer.decode_request_payload(payload[:cut])
    for extra in (b"\0", bytes(4), bytes(8), bytes(9)):
        with pytest.raises(XdrError):
            transfer.decode_request_payload(payload + extra)


def test_a_root_count_that_disagrees_is_rejected():
    payload = bytearray(encoded([0x1000, 0x2010]))
    payload[-(2 * 8) - 1] = 3  # the count word's low byte
    with pytest.raises(XdrError, match="names 3 roots and carries 2"):
        transfer.decode_request_payload(bytes(payload))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_cursor_pass_reads_what_the_stream_decoder_read(data):
    payload = encoded(
        data.draw(st.lists(st.integers(1, 2**64 - 1), max_size=4)),
        session=data.draw(st.text(min_size=0, max_size=9)),
    )
    # Flip, cut or extend a few bytes: both readers agree or both fail.
    payload = bytearray(payload)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(payload) - 1))
        payload[at] = data.draw(st.integers(0, 255))
    payload = bytes(payload)[: data.draw(st.integers(0, len(payload) + 1))]
    payload += bytes(data.draw(st.integers(0, 9)))
    try:
        want = stream_decode(payload)
    except XdrError:
        with pytest.raises(XdrError):
            transfer.decode_request_payload(payload)
    else:
        assert transfer.decode_request_payload(payload) == want
