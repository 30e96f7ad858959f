"""Wire format: length-prefixed XDR frames round-trip exactly."""

import socket

import pytest

from repro.simnet.message import MessageKind
from repro.transport.exchange import Connection
from repro.transport.framing import (
    KIND_WORDS,
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    STATUS_HANDLER_ERROR,
    STATUS_OK,
    WORD_KINDS,
    FramingError,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
    Welcome,
    decode_frame,
    encode_frame,
)
from tests.transport.stream_contract import split_buffer

FRAMES = [
    Hello(version=PROTOCOL_VERSION, site_id="A"),
    Welcome(version=PROTOCOL_VERSION, site_id="B"),
    Goodbye(site_id="B", reason="unsupported protocol version"),
    Request(
        exchange_id=(7 << 32) | 1,
        src="A",
        dst="B",
        kind="call",
        expects_reply=True,
        payload=b"\x00\x01payload",
    ),
    Request(
        exchange_id=2,
        src="A",
        dst="B",
        kind="invalidate",
        expects_reply=False,
        payload=b"",
    ),
    Reply(exchange_id=(7 << 32) | 1, status=STATUS_OK, payload=b"ok"),
    Reply(exchange_id=3, status=STATUS_HANDLER_ERROR, payload=b"boom"),
    Ping(token=41),
    Pong(token=41),
    Request(
        exchange_id=4,
        src="A",
        dst="B",
        kind="data_request",
        expects_reply=True,
        payload=b"clocked",
        clock=(("A", 5), ("B", 2)),
    ),
    Reply(
        exchange_id=4,
        status=STATUS_OK,
        payload=b"\x00" * 5,
        clock=(("A", 5), ("B", 3), ("C", 2**40)),
    ),
]


@pytest.mark.parametrize("frame", FRAMES, ids=lambda f: type(f).__name__)
def test_round_trip(frame):
    encoded = encode_frame(frame)
    (body_len,) = LENGTH_PREFIX.unpack_from(encoded)
    assert len(encoded) == LENGTH_PREFIX.size + body_len
    assert decode_frame(encoded[LENGTH_PREFIX.size :]) == frame


def test_split_buffer_reassembles_partial_frames():
    stream = b"".join(encode_frame(frame) for frame in FRAMES)
    decoded = []
    buffer = b""
    # Feed the byte stream one octet at a time: framing must never
    # yield a frame early and never lose bytes across the boundaries.
    for offset in range(len(stream)):
        buffer += stream[offset : offset + 1]
        frame, buffer = split_buffer(buffer)
        if frame is not None:
            decoded.append(frame)
    assert decoded == FRAMES
    assert buffer == b""


def test_oversized_length_prefix_rejected():
    # The one check is the link's, made before a byte of body is read.
    near, far = socket.socketpair()
    with near, far:
        near.sendall(LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(FramingError):
            Connection(far).read_frame()


def test_truncated_body_rejected():
    encoded = encode_frame(Ping(token=9))
    with pytest.raises(FramingError):
        decode_frame(encoded[LENGTH_PREFIX.size : -2])


def test_trailing_garbage_rejected():
    body = encode_frame(Ping(token=9))[LENGTH_PREFIX.size :]
    with pytest.raises(FramingError):
        decode_frame(body + b"\x00\x00\x00\x00")


def test_unknown_frame_type_rejected():
    # 8-10 were the shared-segment frames of protocol version 2.
    for word in (8, 9, 10, 0x63):
        with pytest.raises(FramingError, match="unknown frame type"):
            decode_frame(word.to_bytes(4, "big") + bytes(64))


def test_non_utf8_string_is_a_framing_error():
    # The hand-written decoder let UnicodeDecodeError escape here, past
    # every ``except FramingError`` in the carriers.
    body = bytearray(encode_frame(Hello(PROTOCOL_VERSION, "A")))
    body[-4] = 0xFF
    with pytest.raises(FramingError):
        decode_frame(bytes(body[LENGTH_PREFIX.size :]))
    # A REQUEST names no site, but its clock does.
    request = encode_frame(FRAMES[9])
    poisoned = request.replace(b"\x00\x00\x00\x01A\x00", b"\x00\x00\x00\x01\xff\x00")
    assert poisoned != request
    with pytest.raises(FramingError):
        decode_frame(poisoned[LENGTH_PREFIX.size :])


def test_every_message_kind_has_its_own_wire_word():
    # Written out, not numbered by the enum: a kind added or moved in
    # MessageKind must not renumber the wire.
    assert set(KIND_WORDS) == {kind.value for kind in MessageKind}
    assert len(set(KIND_WORDS.values())) == len(KIND_WORDS)
    assert 0 not in KIND_WORDS.values()
    assert WORD_KINDS == {word: kind for kind, word in KIND_WORDS.items()}
    assert KIND_WORDS["call"] == 1 and KIND_WORDS["data_request"] == 3


def test_a_request_names_its_kind_by_a_word_and_no_site():
    frame = FRAMES[3]
    body = encode_frame(frame)[LENGTH_PREFIX.size :]
    # Type word, exchange id, the kind's word, flag, clock count,
    # payload length and payload: the connection names both ends.
    assert body[:16] == bytes.fromhex("00000004" "0000000700000001" "00000001")
    assert len(body) == 28 + 12  # six words, the padded payload
    decoded = decode_frame(body)
    assert decoded == frame and decoded.src == decoded.dst == ""
    for word in (0, 26, 2**32 - 1):
        unknown = body[:12] + word.to_bytes(4, "big") + body[16:]
        with pytest.raises(FramingError, match="unknown message kind"):
            decode_frame(unknown)


def test_nonzero_padding_and_bad_boolean_rejected():
    hello = bytearray(encode_frame(Hello(PROTOCOL_VERSION, "A")))
    hello[-1] = 1  # padding after the one-byte site id
    with pytest.raises(FramingError):
        decode_frame(bytes(hello[LENGTH_PREFIX.size :]))
    reply = bytearray(encode_frame(Reply(1, STATUS_OK, b"x")))
    reply[-1] = 1  # padding after the one-byte payload
    with pytest.raises(FramingError):
        decode_frame(bytes(reply[LENGTH_PREFIX.size :]))
    request = encode_frame(FRAMES[4])  # expects_reply=False, no clock
    flag = request.rindex(b"\x00" * 12)  # bool, clock count, payload length
    with pytest.raises(FramingError):
        decode_frame(
            request[LENGTH_PREFIX.size : flag] + b"\x00\x00\x00\x02"
            + request[flag + 4 :]
        )


@pytest.mark.parametrize(
    "frame",
    [
        Ping(token=2**64),
        Ping(token=-1),
        Hello(version=2**32, site_id="A"),
        Reply(exchange_id=1, status=-1, payload=b""),
        Request(2**64, "call", True, b""),
        Request(1, "no_such_kind", True, b""),
        Ping(token="41"),
    ],
    ids=repr,
)
def test_out_of_range_field_is_a_framing_error(frame):
    with pytest.raises(FramingError):
        encode_frame(frame)


def test_unknown_frame_class_and_oversized_body_rejected():
    with pytest.raises(FramingError):
        encode_frame(("not", "a", "frame"))
    # bytes(n) is calloc'd and the bound is checked before any copy.
    with pytest.raises(FramingError):
        encode_frame(Reply(1, STATUS_OK, bytes(MAX_FRAME_BYTES + 1)))


def test_payload_may_be_any_buffer():
    for payload in (bytearray(b"abcde"), memoryview(b"abcde")):
        encoded = encode_frame(Reply(9, STATUS_OK, payload))
        assert encoded == encode_frame(Reply(9, STATUS_OK, b"abcde"))
