"""Length-prefixed binary framing for the real carriers.

Every frame on the wire is a 4-byte big-endian body length followed by
the body; the body is a frame-type word followed by XDR-encoded fields
(the encoding discipline of the :mod:`repro.xdr` streams the RPC
payloads use, so the whole wire format has one).  The TCP transport
and the shared-memory transport (:mod:`repro.transport.shm`) write the
*same* frames onto their sockets, through one link
(:mod:`repro.transport.stream`), one codec and one handshake.

Frame vocabulary::

    HELLO        client -> server  protocol version + sender site id
    WELCOME      server -> client  accepted version + server site id
    GOODBYE      either direction  refusal / orderly close, with reason
    REQUEST      client -> server  one exchange: id, src, dst, kind, body
    REPLY        server -> client  exchange id, status, body
    PING         client -> server  liveness probe (token)
    PONG         server -> client  liveness echo (token)
    SEG_REQUEST  client -> server  a REQUEST whose payload lives in a
                                   shared data segment (name, offset,
                                   length, extent stamp, epoch)
    SEG_REPLY    server -> client  a REPLY shipped the same way
    SEG_ACK      either direction  the receiver is done reading one
                                   segment extent; the owner may reuse it

The ``SEG_*`` frames are the shared-memory carrier's zero-copy path:
instead of copying a large payload through the socket they hand over an
*offset* into the sender's data segment (see
:class:`repro.transport.shm.SegmentAllocator`), which the receiver maps
as a ``memoryview`` and decodes in place.  TCP never emits them.

The handshake is versioned: a connection opens with ``HELLO``; the
server answers ``WELCOME`` when it speaks that version and ``GOODBYE``
(then closes) when it does not, so incompatible peers fail loudly at
connect time instead of corrupting exchanges.

The codec is *compiled* (DESIGN.md §9): ``_FRAME_TABLE`` declares each
frame's fields in wire order and ``_compile`` generates one encoder
and one decoder per type from it on first use, as :mod:`repro.xdr.raw`
does per datum — fixed-width words through one ``struct.Struct`` per
run, site ids / kinds / segment names spliced from bounded intern
tables, clock and payload by offset off the one ``memoryview``.  The
byte image and every check are those of the per-field ladder it
replaced (``tests/transport/frame_ladder.py``, the differential
oracle); every failure is a :class:`FramingError`, bad UTF-8 included.
"""

from __future__ import annotations

import enum
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

from repro.transport.base import TransportError
from repro.xdr.stream import XdrEncoder

#: Current wire protocol version, sent in every HELLO/WELCOME.
#: Version 2 added the piggybacked vector clock on REQUEST/REPLY.
PROTOCOL_VERSION = 2

#: Upper bound on one frame body; guards against garbage length words.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Wire size of the length prefix.
LENGTH_PREFIX = struct.Struct("!I")

#: Reply status codes.
STATUS_OK = 0
STATUS_HANDLER_ERROR = 1


class FramingError(TransportError):
    """A frame could not be encoded or decoded."""


class FrameType(enum.IntEnum):
    """The 1-byte discriminator opening every frame body."""

    HELLO = 1
    WELCOME = 2
    GOODBYE = 3
    REQUEST = 4
    REPLY = 5
    PING = 6
    PONG = 7
    SEG_REQUEST = 8
    SEG_REPLY = 9
    SEG_ACK = 10


@dataclass(frozen=True)
class Hello:
    """Connection opener: who is calling and which protocol they speak."""

    version: int
    site_id: str


@dataclass(frozen=True)
class Welcome:
    """Handshake acceptance: the version in force and the server's id."""

    version: int
    site_id: str


@dataclass(frozen=True)
class Goodbye:
    """Refusal or orderly close, with a human-readable reason."""

    site_id: str
    reason: str


@dataclass(frozen=True)
class Request:
    """One exchange request.

    ``exchange_id`` is unique per sending site; the receiver's
    duplicate suppression keys on ``(src, exchange_id)``, so a
    retransmitted request (same id) never re-runs the handler.
    """

    exchange_id: int
    src: str
    dst: str
    kind: str
    expects_reply: bool
    payload: bytes
    #: Sender's vector clock, piggybacked for causal trace stamping:
    #: sorted ``(site id, tick count)`` pairs.
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Reply:
    """The response to one exchange, matched by ``exchange_id``."""

    exchange_id: int
    status: int
    payload: bytes
    #: Responder's vector clock at reply time (see :class:`Request`).
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Ping:
    """Transport-level liveness probe."""

    token: int


@dataclass(frozen=True)
class Pong:
    """Echo of one :class:`Ping`'s token."""

    token: int


@dataclass(frozen=True)
class SegRequest:
    """A :class:`Request` whose payload is handed over by reference.

    ``segment`` names the sender's shared data segment; the payload is
    the ``length`` bytes at ``offset``.  ``extent`` is the extent's
    publication stamp and ``epoch`` the segment epoch at allocation
    time: the receiver validates both before and after reading, so a
    recycled or invalidated extent is detected instead of silently
    yielding a torn payload.
    """

    exchange_id: int
    src: str
    dst: str
    kind: str
    expects_reply: bool
    segment: str
    offset: int
    length: int
    extent: int
    epoch: int
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class SegReply:
    """A :class:`Reply` shipped by segment reference (see above)."""

    exchange_id: int
    status: int
    segment: str
    offset: int
    length: int
    extent: int
    epoch: int
    clock: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class SegAck:
    """The receiver finished reading one extent; the owner may reuse it."""

    segment: str
    offset: int
    extent: int


Frame = Union[
    Hello, Welcome, Goodbye, Request, Reply, Ping, Pong,
    SegRequest, SegReply, SegAck,
]


# -- the frame table and the codec compiled from it -------------------------
#
# One row per frame type: class, type word, and the body's fields in
# wire order as ``name:kind``.  Kinds: ``I`` uint32, ``Q`` uint64, ``?``
# boolean (a 0/1 uint32), ``s`` string (spliced from the intern
# tables), ``c`` vector clock, ``o`` opaque payload.
_FRAME_TABLE = (
    (Hello, FrameType.HELLO, "version:I site_id:s"),
    (Welcome, FrameType.WELCOME, "version:I site_id:s"),
    (Goodbye, FrameType.GOODBYE, "site_id:s reason:s"),
    (Request, FrameType.REQUEST,
     "exchange_id:Q src:s dst:s kind:s expects_reply:? clock:c payload:o"),
    (Reply, FrameType.REPLY, "exchange_id:Q status:I clock:c payload:o"),
    (Ping, FrameType.PING, "token:Q"),
    (Pong, FrameType.PONG, "token:Q"),
    (SegRequest, FrameType.SEG_REQUEST,
     "exchange_id:Q src:s dst:s kind:s expects_reply:? clock:c "
     "segment:s offset:Q length:I extent:Q epoch:Q"),
    (SegReply, FrameType.SEG_REPLY,
     "exchange_id:Q status:I clock:c "
     "segment:s offset:Q length:I extent:Q epoch:Q"),
    (SegAck, FrameType.SEG_ACK, "segment:s offset:Q extent:Q"),
)

_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_NO_CLOCK = bytes(4)
_PADS = (b"", bytes(3), bytes(2), bytes(1))

#: The intern tables: a string (site id, kind, segment name) <-> its
#: whole XDR image (length word, UTF-8 bytes, zero padding), checked
#: once on the way in.  The decode side is keyed by bytes a peer chose,
#: so both are cleared at ``INTERN_CAP`` entries rather than left to grow.
INTERN_CAP = 1024
_IMAGES: Dict[str, bytes] = {}
_TEXTS: Dict[bytes, str] = {}
_INTERN_LOCK = threading.Lock()


def _intern(text: str, image: bytes) -> None:
    with _INTERN_LOCK:
        if len(_IMAGES) >= INTERN_CAP:
            _IMAGES.clear()
            _TEXTS.clear()
        _IMAGES[text] = image
        _TEXTS[image] = text


def _intern_text(text: str) -> bytes:
    """The XDR image of ``text`` (encode-side intern miss)."""
    raw = text.encode("utf-8")
    image = _U32.pack(len(raw)) + raw + _PADS[len(raw) & 3]
    _intern(text, image)
    return image


def _intern_image(image: bytes) -> str:
    """Check and decode one string image (decode-side intern miss)."""
    end = 4 + _U32.unpack_from(image)[0]
    if len(image) != end + (-end & 3) or any(image[end:]):
        raise FramingError("malformed frame body: bad string extent")
    try:
        text = str(image[4:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise FramingError(f"malformed frame body: {exc}") from None
    _intern(text, image)
    return text


def _clock_image(clock: Tuple[Tuple[str, int], ...]) -> bytes:
    parts = [_U32.pack(len(clock))]
    for site, count in clock:
        parts += _IMAGES.get(site) or _intern_text(site), _U64.pack(count)
    return b"".join(parts)


def _decode_clock(view: memoryview, offset: int, count: int):
    """``count`` (site, ticks) pairs at ``offset``; also the end offset."""
    clock = []
    for _ in range(count):
        end = offset + 4 + (_U32.unpack_from(view, offset)[0] + 3 & -4)
        image = view[offset:end].tobytes()
        site = _TEXTS.get(image)
        if site is None:
            site = _intern_image(image)
        clock.append((site, _U64.unpack_from(view, end)[0]))
        offset = end + 8
    return tuple(clock), offset


def _compile(cls, type_word: int, layout: str) -> None:
    """Generate and register one frame type's encoder and decoder.

    Consecutive fixed-width words (prefix, type word, every length and
    count word) collapse into one ``Struct`` per run.  Decoded frames
    are filled through ``__dict__``: a frozen dataclass's ``__init__``
    pays one ``object.__setattr__`` per field.
    """
    env = globals()  # the generated functions are this module's own
    fields = [item.split(":") for item in layout.split()]

    def run(method: str, fmt: str) -> int:
        codec = struct.Struct("!" + fmt)
        env[f"_{method}_{fmt}"] = getattr(codec, method)  # shared by types
        return codec.size

    # Encoder: intern-table splices and packed runs, joined once.
    encode, parts, sizes = [f"def _encode_{cls.__name__}(f):"], [], []
    fmt, args = "II", ["_size", str(int(type_word))]
    fixed = -LENGTH_PREFIX.size  # the body length leaves the prefix out
    for name, kind in fields + [("", "")]:
        if kind and kind in "IQ?":
            fmt += kind.replace("?", "I")
            args.append(
                f"1 if f.{name} else 0" if kind == "?" else f"f.{name}"
            )
            continue
        if kind == "o":
            encode += [f"{name} = f.{name}", f"{name}_n = len({name})"]
            fmt, args = fmt + "I", args + [f"{name}_n"]
        if fmt:  # a run ends here
            parts.append(f"_pack_{fmt}({', '.join(args)})")
            fixed, fmt, args = fixed + run("pack", fmt), "", []
        if kind == "o":
            parts += [name, f"_PADS[{name}_n & 3]"]
            sizes.append(f"{name}_n + (-{name}_n & 3)")
        elif kind:
            encode.append(
                f"{name} = _IMAGES.get(f.{name}) or _intern_text(f.{name})"
                if kind == "s" else
                f"{name} = _clock_image(f.{name}) if f.{name} else _NO_CLOCK"
            )
            parts.append(name)
            sizes.append(f"len({name})")
    encode += [
        f"_size = {' + '.join([str(fixed)] + sizes)}",
        "if _size > MAX_FRAME_BYTES: raise FramingError(f'frame body of "
        "{_size} bytes exceeds the {MAX_FRAME_BYTES}-byte limit')",
        f"return b''.join(({', '.join(parts)},))",
    ]

    # Decoder: the same runs read back.  The read position is tracked
    # symbolically: ``base`` (nothing, then the ``_off`` local once a
    # variable-length field has been passed) plus a constant ``delta``.
    words = [("I", "_")]
    for name, kind in fields:
        if kind in "IQ?":
            words.append((kind.replace("?", "I"), name))
        else:
            words += [("I", "_count" if kind == "c" else "_len"), (kind, name)]
    decode = [f"def _decode_{cls.__name__}(_view, _n):"]
    fmt, names, base, delta = "", [], "", 0

    def pos(extra: int = 0) -> str:
        offset = delta + extra
        return f"{base} + {offset}" if base and offset else base or str(offset)

    for kind, name in words + [("", "")]:
        if kind and kind in "IQ":
            fmt, names = fmt + kind, names + [name]
            continue
        if fmt:
            decode.append(
                f"{', '.join(names)}, = _unpack_from_{fmt}(_view, {pos()})"
            )
            delta, fmt, names = delta + run("unpack_from", fmt), "", []
        if kind == "s":  # the interned image starts at its length word
            decode += [
                f"_at = {pos(-4)}",
                f"_off = {pos()} + (_len + 3 & -4)",
                f"{name} = _TEXTS.get(_image := _view[_at:_off].tobytes())",
                f"if {name} is None: {name} = _intern_image(_image)",
            ]
        elif kind == "c":
            decode += [
                f"_off = {pos()}",
                f"{name} = ()",
                f"if _count: {name}, _off = "
                "_decode_clock(_view, _off, _count)",
            ]
        elif kind == "o":
            decode += [
                f"_at = {pos()}",
                "_end = _at + _len",
                f"{name} = _view[_at:_end].tobytes()",
                "_off = _end + (-_len & 3)",
                "if _off != _end and any(_view[_end:_off]): raise "
                "FramingError('malformed frame body: nonzero padding')",
            ]
        else:  # past the last field: nothing missing, nothing left over
            decode.append(f"if {pos()} != _n: raise FramingError("
                          "'malformed frame body: wrong length')")
        base, delta = "_off", 0
    decode += [
        f"_frame = object.__new__({cls.__name__})", "_fill = _frame.__dict__"
    ]
    for name, kind in fields:
        if kind == "?":
            decode.append(f"if {name} > 1: raise FramingError("
                          "'malformed frame body: bad boolean')")
        decode.append(
            f"_fill['{name}'] = {name}" + (" == 1" if kind == "?" else "")
        )
    source = "\n ".join(encode) + "\n" + "\n ".join(decode + ["return _frame"])
    exec(compile(source, f"<{cls.__name__} frame codec>", "exec"), env)
    _ENCODERS[cls] = env["_encode_" + cls.__name__]
    _DECODERS[int(type_word)] = env["_decode_" + cls.__name__]


#: The compiled codecs, by frame class and by type word; a row is
#: compiled on first use, so simnet-only processes never pay for one.
_ENCODERS: Dict[type, Callable[[Frame], bytes]] = {}
_DECODERS: Dict[int, Callable[[memoryview, int], Frame]] = {}


def _compiled(registry: dict, key):
    """Compile the table row of ``key`` (a frame class or a type word)
    and return its new ``registry`` entry; ``None`` without such a row."""
    for row in _FRAME_TABLE:
        if key in row[:2]:
            _compile(*row)
            return registry[key]
    return None


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` as length prefix + body."""
    kind = type(frame)
    encode = _ENCODERS.get(kind) or _compiled(_ENCODERS, kind)
    if encode is None:
        raise FramingError(f"cannot encode frame {frame!r}")
    try:
        return encode(frame)
    except struct.error as exc:
        raise FramingError(f"cannot encode {frame!r}: {exc}") from None


def encode_frame_into(frame: Frame, encoder: XdrEncoder) -> memoryview:
    """Append ``frame``'s wire image to ``encoder``'s buffer; the view
    returned aliases it, so write (or copy) it before reusing it."""
    start = encoder.size
    encoder.pack_fixed_opaque(encode_frame(frame))
    return encoder.getbuffer()[start:]


def decode_frame(body) -> Frame:
    """Parse one frame body (the bytes after the length prefix)."""
    view = body if type(body) is memoryview else memoryview(body)
    if view.format != "B":
        view = view.cast("B")
    try:
        (type_word,) = _U32.unpack_from(view, 0)
        decode = _DECODERS.get(type_word) or _compiled(_DECODERS, type_word)
        if decode is None:
            raise FramingError(f"unknown frame type {type_word!r}")
        return decode(view, len(view))
    except struct.error as exc:
        raise FramingError(f"malformed frame body: {exc}") from None


def split_buffer(buffer: bytes) -> Tuple[Union[Frame, None], bytes]:
    """Parse one frame off the front of ``buffer`` if complete.

    Returns ``(frame, rest)``; ``frame`` is ``None`` while the buffer
    holds less than one whole frame.  Used by tests and any sans-I/O
    consumer; the TCP transport reads frames directly off its socket
    with :func:`frame_length`.
    """
    if len(buffer) < LENGTH_PREFIX.size:
        return None, buffer
    (length,) = LENGTH_PREFIX.unpack_from(buffer)
    if length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    end = LENGTH_PREFIX.size + length
    if len(buffer) < end:
        return None, buffer
    body = memoryview(buffer)[LENGTH_PREFIX.size : end]
    return decode_frame(body), buffer[end:]


def frame_length(prefix: bytes) -> int:
    """Decode and bounds-check one 4-byte length prefix."""
    (length,) = LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length
