"""The hand-written frame codec, kept as the differential oracle.

This is the per-field ``isinstance`` ladder that
:mod:`repro.transport.framing` used before its codec was compiled from
the frame table — ``clock_to_wire``, ``encode_frame_into`` and
``decode_frame`` verbatim, one :class:`~repro.xdr.stream.XdrEncoder` /
:class:`~repro.xdr.stream.XdrDecoder` method call per field.  The
compiled codec must produce the same bytes for every frame and accept,
reject and decode every body exactly as this one does
(``test_framing_differential.py``); like
``tests/xdr/reference_codec.py`` it is slow and obviously right.

One deliberate difference in what the two *raise*: this decoder lets
``UnicodeDecodeError`` escape for a string field that is not UTF-8
(the bug the compiled decoder fixes by raising ``FramingError``), so
the differential tests count either as a rejection.
"""

from typing import Tuple

from repro.transport.framing import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    Frame,
    FrameType,
    FramingError,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
    SegAck,
    SegReply,
    SegRequest,
    Welcome,
)
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder


def clock_to_wire(clock) -> Tuple[Tuple[str, int], ...]:
    """Normalize a vector-clock mapping into its wire form."""
    return tuple(sorted((str(k), int(v)) for k, v in dict(clock).items()))


def _encode_clock(
    encoder: XdrEncoder, clock: Tuple[Tuple[str, int], ...]
) -> None:
    encoder.pack_uint32(len(clock))
    for site, count in clock:
        encoder.pack_string(site)
        encoder.pack_uint64(count)


def _decode_clock(decoder: XdrDecoder) -> Tuple[Tuple[str, int], ...]:
    count = decoder.unpack_uint32()
    return tuple(
        (decoder.unpack_string(), decoder.unpack_uint64())
        for _ in range(count)
    )


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` as length prefix + body."""
    return bytes(encode_frame_into(frame, XdrEncoder()))


def encode_frame_into(frame: Frame, encoder: XdrEncoder) -> memoryview:
    """Serialize ``frame`` into ``encoder``; return the wire image.

    The whole wire image — length prefix and body — is packed into the
    encoder's single buffer, so a ``Request``/``Reply`` payload is
    copied exactly once between the caller and the socket.  The
    returned view aliases the encoder's buffer: write (or copy) it
    before reusing the encoder.
    """
    start = encoder.size
    encoder.pack_uint32(0)  # length prefix, patched below
    if isinstance(frame, Hello):
        encoder.pack_uint32(FrameType.HELLO)
        encoder.pack_uint32(frame.version)
        encoder.pack_string(frame.site_id)
    elif isinstance(frame, Welcome):
        encoder.pack_uint32(FrameType.WELCOME)
        encoder.pack_uint32(frame.version)
        encoder.pack_string(frame.site_id)
    elif isinstance(frame, Goodbye):
        encoder.pack_uint32(FrameType.GOODBYE)
        encoder.pack_string(frame.site_id)
        encoder.pack_string(frame.reason)
    elif isinstance(frame, Request):
        encoder.pack_uint32(FrameType.REQUEST)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_string(frame.src)
        encoder.pack_string(frame.dst)
        encoder.pack_string(frame.kind)
        encoder.pack_bool(frame.expects_reply)
        _encode_clock(encoder, frame.clock)
        encoder.pack_opaque(frame.payload)
    elif isinstance(frame, Reply):
        encoder.pack_uint32(FrameType.REPLY)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_uint32(frame.status)
        _encode_clock(encoder, frame.clock)
        encoder.pack_opaque(frame.payload)
    elif isinstance(frame, Ping):
        encoder.pack_uint32(FrameType.PING)
        encoder.pack_uint64(frame.token)
    elif isinstance(frame, Pong):
        encoder.pack_uint32(FrameType.PONG)
        encoder.pack_uint64(frame.token)
    elif isinstance(frame, SegRequest):
        encoder.pack_uint32(FrameType.SEG_REQUEST)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_string(frame.src)
        encoder.pack_string(frame.dst)
        encoder.pack_string(frame.kind)
        encoder.pack_bool(frame.expects_reply)
        _encode_clock(encoder, frame.clock)
        encoder.pack_string(frame.segment)
        encoder.pack_uint64(frame.offset)
        encoder.pack_uint32(frame.length)
        encoder.pack_uint64(frame.extent)
        encoder.pack_uint64(frame.epoch)
    elif isinstance(frame, SegReply):
        encoder.pack_uint32(FrameType.SEG_REPLY)
        encoder.pack_uint64(frame.exchange_id)
        encoder.pack_uint32(frame.status)
        _encode_clock(encoder, frame.clock)
        encoder.pack_string(frame.segment)
        encoder.pack_uint64(frame.offset)
        encoder.pack_uint32(frame.length)
        encoder.pack_uint64(frame.extent)
        encoder.pack_uint64(frame.epoch)
    elif isinstance(frame, SegAck):
        encoder.pack_uint32(FrameType.SEG_ACK)
        encoder.pack_string(frame.segment)
        encoder.pack_uint64(frame.offset)
        encoder.pack_uint64(frame.extent)
    else:
        raise FramingError(f"cannot encode frame {frame!r}")
    body_length = encoder.size - start - LENGTH_PREFIX.size
    if body_length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame body of {body_length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    image = encoder.getbuffer()[start:]
    LENGTH_PREFIX.pack_into(image, 0, body_length)
    return image


def decode_frame(body) -> Frame:
    """Parse one frame body (the bytes after the length prefix)."""
    decoder = XdrDecoder(body)
    try:
        raw_type = decoder.unpack_uint32()
        try:
            frame_type = FrameType(raw_type)
        except ValueError:
            raise FramingError(f"unknown frame type {raw_type!r}") from None
        if frame_type is FrameType.HELLO:
            frame: Frame = Hello(
                version=decoder.unpack_uint32(),
                site_id=decoder.unpack_string(),
            )
        elif frame_type is FrameType.WELCOME:
            frame = Welcome(
                version=decoder.unpack_uint32(),
                site_id=decoder.unpack_string(),
            )
        elif frame_type is FrameType.GOODBYE:
            frame = Goodbye(
                site_id=decoder.unpack_string(),
                reason=decoder.unpack_string(),
            )
        elif frame_type is FrameType.REQUEST:
            frame = Request(
                exchange_id=decoder.unpack_uint64(),
                src=decoder.unpack_string(),
                dst=decoder.unpack_string(),
                kind=decoder.unpack_string(),
                expects_reply=decoder.unpack_bool(),
                clock=_decode_clock(decoder),
                payload=decoder.unpack_opaque(),
            )
        elif frame_type is FrameType.REPLY:
            frame = Reply(
                exchange_id=decoder.unpack_uint64(),
                status=decoder.unpack_uint32(),
                clock=_decode_clock(decoder),
                payload=decoder.unpack_opaque(),
            )
        elif frame_type is FrameType.PING:
            frame = Ping(token=decoder.unpack_uint64())
        elif frame_type is FrameType.PONG:
            frame = Pong(token=decoder.unpack_uint64())
        elif frame_type is FrameType.SEG_REQUEST:
            frame = SegRequest(
                exchange_id=decoder.unpack_uint64(),
                src=decoder.unpack_string(),
                dst=decoder.unpack_string(),
                kind=decoder.unpack_string(),
                expects_reply=decoder.unpack_bool(),
                clock=_decode_clock(decoder),
                segment=decoder.unpack_string(),
                offset=decoder.unpack_uint64(),
                length=decoder.unpack_uint32(),
                extent=decoder.unpack_uint64(),
                epoch=decoder.unpack_uint64(),
            )
        elif frame_type is FrameType.SEG_REPLY:
            frame = SegReply(
                exchange_id=decoder.unpack_uint64(),
                status=decoder.unpack_uint32(),
                clock=_decode_clock(decoder),
                segment=decoder.unpack_string(),
                offset=decoder.unpack_uint64(),
                length=decoder.unpack_uint32(),
                extent=decoder.unpack_uint64(),
                epoch=decoder.unpack_uint64(),
            )
        else:
            frame = SegAck(
                segment=decoder.unpack_string(),
                offset=decoder.unpack_uint64(),
                extent=decoder.unpack_uint64(),
            )
        decoder.expect_done()
    except XdrError as exc:
        raise FramingError(f"malformed frame body: {exc}") from None
    return frame
