"""Length-prefixed binary framing for the real carriers.

Every frame on the wire is a 4-byte big-endian body length followed by
the body; the body is a frame-type word followed by XDR-encoded fields
(the encoding discipline of the :mod:`repro.xdr` streams the RPC
payloads use, so the whole wire format has one).  The TCP transport
and the ``AF_UNIX`` transport (:mod:`repro.transport.shm`) write the
*same* frames onto their sockets, through one link
(:mod:`repro.transport.exchange`), one codec and one handshake.

Frame vocabulary::

    HELLO        client -> server  protocol version + sender site id
    WELCOME      server -> client  accepted version + server site id
    GOODBYE      either direction  refusal / orderly close, with reason
    REQUEST      client -> server  one exchange: id, kind word, body
    REPLY        server -> client  exchange id, status, body
    PING         client -> server  liveness probe (token)
    PONG         server -> client  liveness echo (token)

Every body travels inline: a decoded ``REQUEST`` or ``REPLY`` owns its
payload bytes.  A ``REQUEST`` names neither end of its exchange: the
connection does (the sender is the site its ``HELLO`` named, the
receiver the site that answered ``WELCOME``), and its message kind is
one word from :data:`KIND_WORDS`.

The handshake is versioned: a connection opens with ``HELLO``; the
server answers ``WELCOME`` when it speaks that version and ``GOODBYE``
(then closes) when it does not, so incompatible peers fail loudly at
connect time instead of corrupting exchanges.

The codec is *compiled* (DESIGN.md §9): ``_FRAME_TABLE`` declares each
frame's fields in wire order and ``_compile`` generates one encoder
and one decoder per type from it on first use, as :mod:`repro.xdr.raw`
does per datum.  The encoder takes the fields themselves
(:func:`fields_encoder`), so the exchange encodes its ``REQUEST`` and
``REPLY`` frames without building them; :func:`encode_frame` passes it
a frame's fields — fixed-width words through one ``struct.Struct`` per
run, site ids and kinds spliced from the bounded intern
table :mod:`repro.xdr.stream` keeps for every codec, clock and payload
by offset off the one ``memoryview``.  The byte image and every check
are those of the per-field ladder it replaced
(``tests/transport/frame_ladder.py``, the differential oracle); every
failure is a :class:`FramingError`, bad UTF-8 included.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, Union

from repro.transport.base import TransportError
from repro.xdr.errors import XdrError
from repro.xdr.stream import (
    IMAGES,
    TEXTS,
    XdrEncoder,
    image_text,
    string_image,
)

#: Current wire protocol version, sent in every HELLO/WELCOME.
#: Version 2 added the piggybacked vector clock on REQUEST/REPLY;
#: version 3 dropped the shared-segment frames (type words 8-10), so a
#: peer that still sends them fails the handshake, not an exchange;
#: version 4 dropped a REQUEST's site ids and carries its kind as a
#: word, so a v3 peer fails the handshake instead of misreading one.
PROTOCOL_VERSION = 4

#: Upper bound on one frame body; guards against garbage length words.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Wire size of the length prefix.
LENGTH_PREFIX = struct.Struct("!I")

#: Reply status codes.
STATUS_OK = 0
STATUS_HANDLER_ERROR = 1


class FramingError(TransportError):
    """A frame could not be encoded or decoded."""


#: A message kind's wire word, by the kind's value.  Written out, not
#: derived from :class:`~repro.simnet.message.MessageKind`'s order, so
#: adding or reordering kinds never renumbers the wire; a new kind
#: takes a new word.
KIND_WORDS: Dict[str, int] = {
    "call": 1,
    "reply": 2,
    "data_request": 3,
    "data_reply": 4,
    "writeback_prepare": 5,
    "writeback_prepare_ack": 6,
    "writeback_commit": 7,
    "writeback_commit_ack": 8,
    "invalidate": 9,
    "memory_batch": 10,
    "memory_batch_reply": 11,
    "type_query": 12,
    "type_reply": 13,
    "site_register": 14,
    "site_deregister": 15,
    "site_lookup": 16,
    "site_heartbeat": 17,
    "site_list": 18,
    "dir_reply": 19,
    "shutdown": 20,
    "shutdown_ack": 21,
    "status": 22,
    "status_reply": 23,
    "run_session": 24,
    "run_reply": 25,
}
#: And back: a kind's value by its wire word.
WORD_KINDS: Dict[int, str] = {word: kind for kind, word in KIND_WORDS.items()}


class FrameType(enum.IntEnum):
    """The 1-byte discriminator opening every frame body."""

    HELLO = 1
    WELCOME = 2
    GOODBYE = 3
    REQUEST = 4
    REPLY = 5
    PING = 6
    PONG = 7


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
    ``kind`` is a message kind's value (a key of :data:`KIND_WORDS`).
    """

    exchange_id: int
    kind: str
    expects_reply: bool
    payload: bytes
    #: Sender's vector clock, piggybacked for causal trace stamping:
    #: sorted ``(site id, tick count)`` pairs.
    clock: Tuple[Tuple[str, int], ...] = ()
    #: The exchange's two ends, which no frame carries: the connection
    #: names them.  The serving side sets them on a request it decoded
    #: (the site the connection's ``HELLO`` named, and itself), so
    #: they are not part of a frame's value.
    src: str = field(default="", compare=False, repr=False)
    dst: str = field(default="", compare=False, repr=False)


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


Frame = Union[Hello, Welcome, Goodbye, Request, Reply, Ping, Pong]


# -- the frame table and the codec compiled from it -------------------------
#
# One row per frame type: class, type word, and the body's fields in
# wire order as ``name:kind``.  Kinds: ``I`` uint32, ``Q`` uint64, ``?``
# boolean (a 0/1 uint32), ``k`` message kind (its uint32 word from
# ``KIND_WORDS``), ``s`` string (spliced from the intern tables), ``c``
# vector clock, ``o`` opaque payload.
_FRAME_TABLE = (
    (Hello, FrameType.HELLO, "version:I site_id:s"),
    (Welcome, FrameType.WELCOME, "version:I site_id:s"),
    (Goodbye, FrameType.GOODBYE, "site_id:s reason:s"),
    (Request, FrameType.REQUEST,
     "exchange_id:Q kind:k expects_reply:? clock:c payload:o"),
    (Reply, FrameType.REPLY, "exchange_id:Q status:I clock:c payload:o"),
    (Ping, FrameType.PING, "token:Q"),
    (Pong, FrameType.PONG, "token:Q"),
)

_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
#: The struct code a field kind that is a fixed-width word packs as.
_WORD = {"?": "I", "k": "I"}
_NO_CLOCK = bytes(4)
_PADS = (b"", bytes(3), bytes(2), bytes(1))


def _text(image: bytes) -> str:
    """Check and decode one string image (an intern-table miss)."""
    try:
        return image_text(image)
    except XdrError as exc:
        raise FramingError(f"malformed frame body: {exc}") from None


def _clock_image(clock: Tuple[Tuple[str, int], ...]) -> bytes:
    parts = [_U32.pack(len(clock))]
    for site, count in clock:
        parts += IMAGES.get(site) or string_image(site), _U64.pack(count)
    return b"".join(parts)


def _decode_clock(view: memoryview, offset: int, count: int):
    """``count`` (site, ticks) pairs at ``offset``; also the end offset."""
    clock = []
    for _ in range(count):
        end = offset + 4 + (_U32.unpack_from(view, offset)[0] + 3 & -4)
        image = view[offset:end].tobytes()
        site = TEXTS.get(image)
        if site is None:
            site = _text(image)
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

    # Encoder: intern-table splices and packed runs, joined once, from
    # the fields themselves; the frame encoder passes a frame's fields.
    params = ", ".join(name for name, _kind in fields)
    encode, parts, sizes = [f"def _fields_{cls.__name__}({params}):"], [], []
    fmt, args = "II", ["_size", str(int(type_word))]
    fixed = -LENGTH_PREFIX.size  # the body length leaves the prefix out
    for name, kind in fields + [("", "")]:
        if kind and kind in "IQ?k":
            fmt += _WORD.get(kind, kind)
            args.append(
                f"1 if {name} else 0" if kind == "?"
                else f"KIND_WORDS[{name}]" if kind == "k" else name
            )
            continue
        if kind == "o":
            encode.append(f"{name}_n = len({name})")
            fmt, args = fmt + "I", args + [f"{name}_n"]
        if fmt:  # a run ends here
            parts.append(f"_pack_{fmt}({', '.join(args)})")
            fixed, fmt, args = fixed + run("pack", fmt), "", []
        if kind == "o":
            parts += [name, f"_PADS[{name}_n & 3]"]
            sizes.append(f"{name}_n + (-{name}_n & 3)")
        elif kind:
            encode.append(
                f"{name} = IMAGES.get({name}) or string_image({name})"
                if kind == "s" else
                f"{name} = _clock_image({name}) if {name} else _NO_CLOCK"
            )
            parts.append(name)
            sizes.append(f"len({name})")
    encode += [
        f"_size = {' + '.join([str(fixed)] + sizes)}",
        "if _size > MAX_FRAME_BYTES: raise FramingError(f'frame body of "
        "{_size} bytes exceeds the {MAX_FRAME_BYTES}-byte limit')",
        f"return b''.join(({', '.join(parts)},))",
    ]
    frame_fields = ", ".join(f"f.{name}" for name, _kind in fields)
    wrap = [
        f"def _encode_{cls.__name__}(f):",
        f"return _fields_{cls.__name__}({frame_fields})",
    ]

    # Decoder: the same runs read back.  The read position is tracked
    # symbolically: ``base`` (nothing, then the ``_off`` local once a
    # variable-length field has been passed) plus a constant ``delta``.
    words = [("I", "_")]
    for name, kind in fields:
        if kind in "IQ?k":
            words.append((_WORD.get(kind, kind), name))
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
                f"{name} = TEXTS.get(_image := _view[_at:_off].tobytes())",
                f"if {name} is None: {name} = _text(_image)",
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
        elif kind == "k":
            decode += [
                f"{name} = WORD_KINDS.get({name})",
                f"if {name} is None: raise FramingError("
                "'malformed frame body: unknown message kind')",
            ]
        decode.append(
            f"_fill['{name}'] = {name}" + (" == 1" if kind == "?" else "")
        )
    decode.append("return _frame")
    source = "\n".join("\n ".join(lines) for lines in (encode, wrap, decode))
    exec(compile(source, f"<{cls.__name__} frame codec>", "exec"), env)
    _FIELDS[cls] = env["_fields_" + cls.__name__]
    _ENCODERS[cls] = env["_encode_" + cls.__name__]
    _DECODERS[int(type_word)] = env["_decode_" + cls.__name__]


#: The compiled codecs, by frame class and by type word; a row is
#: compiled on first use, so simnet-only processes never pay for one.
_ENCODERS: Dict[type, Callable[[Frame], bytes]] = {}
_FIELDS: Dict[type, Callable[..., bytes]] = {}
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
    except KeyError:
        raise FramingError(f"cannot encode {frame!r}: no such kind") from None


def fields_encoder(cls) -> Callable[..., bytes]:
    """The compiled encoder of ``cls`` frames that takes the frame's
    fields themselves, in table order, and builds no frame: the hot
    path's ``REQUEST`` and ``REPLY``.  Its bytes are
    :func:`encode_frame`'s; an out-of-range word is ``struct.error``,
    a kind with no word a ``KeyError``."""
    return _FIELDS.get(cls) or _compiled(_FIELDS, cls)


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
