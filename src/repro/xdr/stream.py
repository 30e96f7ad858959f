"""XDR canonical streams (RFC 1014 discipline, rebuilt from scratch).

Everything that crosses the simulated wire — RPC headers, arguments,
data-transfer batches, coherency traffic — is produced by
:class:`XdrEncoder` and consumed by :class:`XdrDecoder`.  The canonical
form is big-endian with every item padded to a multiple of 4 bytes,
matching the XDR the original system used, so encoded sizes (and thus
the simulated wire costs) are realistic.

The streams are built for a zero-copy wire path:

* :class:`XdrEncoder` writes into one growable ``bytearray`` (grown
  geometrically, packed in place with ``struct.pack_into``) instead of
  accumulating per-field ``bytes`` chunks; :meth:`XdrEncoder.getbuffer`
  exposes the encoded region as a ``memoryview`` so framing can copy a
  payload onto the wire exactly once.
* :class:`XdrDecoder` reads through a ``memoryview`` with
  ``unpack_from`` — no intermediate slice objects — and accepts
  ``bytes``, ``bytearray`` or ``memoryview`` input, so nested decoders
  (frame -> batch -> item) can share one buffer.  The ``*_view``
  readers hand back sub-views without copying.
* Strings travel as whole interned images: :data:`IMAGES` maps a
  string to its XDR image (length word, UTF-8 bytes, zero padding) and
  :data:`TEXTS` maps an image back, so the site ids, session ids, type
  ids and kinds every message repeats cost one dict probe each way.
  One capped table serves the frame codec
  (:mod:`repro.transport.framing`) and every payload codec.
"""

from __future__ import annotations

import struct
import threading
from typing import Dict, Union

from repro.xdr.errors import XdrError

_UINT32_MAX = 0xFFFFFFFF
_UINT64_MAX = 0xFFFFFFFFFFFFFFFF

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F32 = struct.Struct(">f")
_F64 = struct.Struct(">d")

_ZEROS = bytes(4)
_PADS = (b"", bytes(3), bytes(2), bytes(1))

Readable = Union[bytes, bytearray, memoryview]

#: Entries the intern table holds before it is cleared.  The decode
#: side is keyed by bytes a peer chose, so both directions are cleared
#: at the cap rather than left to grow.
INTERN_CAP = 1024

#: The longest image the table takes: ids recur, data strings (RPC
#: arguments, error texts) need not, and must not be kept alive.
INTERN_MAX_BYTES = 256

#: The intern table: string -> whole XDR image, and image -> string.
#: Read them with ``.get``; a miss goes through :func:`string_image` /
#: :func:`image_text`, which check and insert.
IMAGES: Dict[str, bytes] = {}
TEXTS: Dict[bytes, str] = {}
_INTERN_LOCK = threading.Lock()


def _intern(text: str, image: bytes) -> None:
    if len(image) > INTERN_MAX_BYTES:
        return
    with _INTERN_LOCK:
        if len(IMAGES) >= INTERN_CAP or len(TEXTS) >= INTERN_CAP:
            IMAGES.clear()
            TEXTS.clear()
        IMAGES[text] = image
        TEXTS[image] = text


def string_image(text: str) -> bytes:
    """The XDR image of ``text``: length word, UTF-8 bytes, padding."""
    image = IMAGES.get(text)
    if image is None:
        raw = text.encode("utf-8")
        image = _U32.pack(len(raw)) + raw + _PADS[len(raw) & 3]
        _intern(text, image)
    return image


def image_text(image: bytes) -> str:
    """The string one whole XDR image stands for.

    A miss is checked before it enters the table: the length word must
    account for every byte, the padding must be zero and the bytes
    UTF-8, or it is an :class:`XdrError`.
    """
    text = TEXTS.get(image)
    if text is not None:
        return text
    end = 4 + _U32.unpack_from(image)[0]
    if len(image) != end + (-end & 3):
        raise XdrError("bad XDR string extent")
    if any(image[end:]):
        raise XdrError(f"nonzero XDR padding {image[end:]!r}")
    try:
        text = str(image[4:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise XdrError(f"bad XDR string: {exc}") from None
    _intern(text, image)
    return text


class XdrEncoder:
    """Append-only canonical stream writer over one growable buffer.

    Fields are packed straight onto a single ``bytearray`` (amortised
    in-place growth), so a message costs one buffer instead of one
    ``bytes`` chunk per field plus a join.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    # -- integers -----------------------------------------------------------

    def pack_uint32(self, value: int) -> None:
        """Append an unsigned 32-bit integer."""
        if not 0 <= value <= _UINT32_MAX:
            raise XdrError(f"uint32 out of range: {value!r}")
        self._buf += _U32.pack(value)

    def pack_int32(self, value: int) -> None:
        """Append a signed 32-bit integer."""
        if not -(2**31) <= value < 2**31:
            raise XdrError(f"int32 out of range: {value!r}")
        self._buf += _I32.pack(value)

    def pack_uint64(self, value: int) -> None:
        """Append an unsigned 64-bit integer (XDR "unsigned hyper")."""
        if not 0 <= value <= _UINT64_MAX:
            raise XdrError(f"uint64 out of range: {value!r}")
        self._buf += _U64.pack(value)

    def pack_int64(self, value: int) -> None:
        """Append a signed 64-bit integer (XDR "hyper")."""
        if not -(2**63) <= value < 2**63:
            raise XdrError(f"int64 out of range: {value!r}")
        self._buf += _I64.pack(value)

    def pack_bool(self, value: bool) -> None:
        """Append a boolean as a 32-bit 0/1."""
        self.pack_uint32(1 if value else 0)

    # -- floats -------------------------------------------------------------

    def pack_float(self, value: float) -> None:
        """Append an IEEE single."""
        self._buf += _F32.pack(value)

    def pack_double(self, value: float) -> None:
        """Append an IEEE double."""
        self._buf += _F64.pack(value)

    # -- byte sequences -------------------------------------------------------

    def pack_fixed_opaque(self, data: Readable) -> None:
        """Append fixed-length opaque data, padded to 4 bytes."""
        buf = self._buf
        buf += data
        padding = -len(buf) % 4
        if padding:
            buf += _ZEROS[:padding]

    def pack_opaque(self, data: Readable) -> None:
        """Append variable-length opaque data (length prefix + padding)."""
        self.pack_uint32(len(data))
        self.pack_fixed_opaque(data)

    def pack_string(self, text: str) -> None:
        """Append a UTF-8 string as variable-length opaque."""
        self._buf += IMAGES.get(text) or string_image(text)

    def pack_struct(self, codec: struct.Struct, *values) -> None:
        """Append ``values`` through a precompiled canonical ``Struct``.

        The wire plans' bulk entry point: the caller vouches that
        ``codec`` is big-endian and 4-byte-unit clean.
        """
        self._buf += codec.pack(*values)

    # -- result ---------------------------------------------------------------

    def getvalue(self) -> bytes:
        """The canonical byte string written so far (one copy)."""
        return bytes(self._buf)

    def getbuffer(self) -> memoryview:
        """Zero-copy view of the encoded region.

        The view aliases the live buffer: consume (or copy) it before
        encoding anything further or releasing the encoder.
        """
        return memoryview(self._buf)

    @property
    def size(self) -> int:
        """Bytes written so far."""
        return len(self._buf)

    def reset(self) -> None:
        """Rewind to empty, keeping the backing buffer object."""
        del self._buf[:]


def underflow(need: int, have: int) -> XdrError:
    """The error of a read that needs ``need`` bytes where ``have``
    remain."""
    return XdrError(f"XDR underflow: need {need} bytes, have {have}")


class XdrDecoder:
    """Sequential canonical stream reader over a ``memoryview``."""

    __slots__ = ("_view", "_len", "_cursor")

    def __init__(self, data: Readable) -> None:
        view = data if isinstance(data, memoryview) else memoryview(data)
        if view.format != "B":
            view = view.cast("B")
        self._view = view
        self._len = len(view)
        self._cursor = 0

    # -- integers -----------------------------------------------------------

    def unpack_uint32(self) -> int:
        """Read an unsigned 32-bit integer."""
        return _U32.unpack_from(self._view, self._advance(4))[0]

    def unpack_int32(self) -> int:
        """Read a signed 32-bit integer."""
        return _I32.unpack_from(self._view, self._advance(4))[0]

    def unpack_uint64(self) -> int:
        """Read an unsigned 64-bit integer."""
        return _U64.unpack_from(self._view, self._advance(8))[0]

    def unpack_int64(self) -> int:
        """Read a signed 64-bit integer."""
        return _I64.unpack_from(self._view, self._advance(8))[0]

    def unpack_bool(self) -> bool:
        """Read a boolean."""
        value = self.unpack_uint32()
        if value not in (0, 1):
            raise XdrError(f"bad boolean encoding {value!r}")
        return bool(value)

    # -- floats -------------------------------------------------------------

    def unpack_float(self) -> float:
        """Read an IEEE single."""
        return _F32.unpack_from(self._view, self._advance(4))[0]

    def unpack_double(self) -> float:
        """Read an IEEE double."""
        return _F64.unpack_from(self._view, self._advance(8))[0]

    # -- byte sequences -------------------------------------------------------

    def unpack_fixed_opaque(self, length: int) -> bytes:
        """Read fixed-length opaque data (and its padding): one copy."""
        return bytes(self.unpack_fixed_view(length))

    def unpack_fixed_view(self, length: int) -> memoryview:
        """Zero-copy view of fixed-length opaque data (and its padding).

        The view aliases the decoder's input buffer; copy it if it must
        outlive the buffer.
        """
        offset = self._advance(length)
        data = self._view[offset : offset + length]
        self._skip_pad(length)
        return data

    def unpack_opaque(self) -> bytes:
        """Read variable-length opaque data."""
        return self.unpack_fixed_opaque(self.unpack_uint32())

    def unpack_opaque_view(self) -> memoryview:
        """Zero-copy view of variable-length opaque data."""
        return self.unpack_fixed_view(self.unpack_uint32())

    def unpack_string(self) -> str:
        """Read a UTF-8 string (one :data:`TEXTS` probe when interned)."""
        view, offset = self._view, self._cursor
        end = offset + 4
        if end <= self._len:
            end += _U32.unpack_from(view, offset)[0] + 3 & -4
        self._advance(end - offset)  # the whole image, or the underflow
        image = view[offset:end].tobytes()
        text = TEXTS.get(image)
        return text if text is not None else image_text(image)

    def unpack_struct(self, codec: struct.Struct) -> tuple:
        """Read ``codec.size`` bytes through a precompiled ``Struct``."""
        return codec.unpack_from(self._view, self._advance(codec.size))

    def peek_uint32(self, ahead: int = 0) -> int:
        """The unsigned 32-bit integer ``ahead`` bytes on, not consumed."""
        offset = self._cursor + ahead
        if offset + 4 > self._len:
            raise underflow(ahead + 4, self._len - self._cursor)
        return _U32.unpack_from(self._view, offset)[0]

    # -- cursor ---------------------------------------------------------------

    @property
    def view(self) -> memoryview:
        """The whole stream: a reader running its own cursor over it
        (a batch apply) unpacks from here, then hands the position back
        through :meth:`seek`."""
        return self._view

    def tell(self) -> int:
        """Bytes consumed so far."""
        return self._cursor

    def seek(self, offset: int) -> None:
        """Move the cursor to ``offset`` (within the stream)."""
        if not 0 <= offset <= self._len:
            raise underflow(offset, self._len)
        self._cursor = offset

    @property
    def remaining(self) -> int:
        """Bytes left unread."""
        return self._len - self._cursor

    def done(self) -> bool:
        """Whether the whole stream has been consumed."""
        return self._cursor == self._len

    def expect_done(self) -> None:
        """Raise unless the stream is fully consumed (framing check)."""
        if not self.done():
            raise XdrError(f"{self.remaining} trailing bytes in XDR stream")

    def _advance(self, size: int) -> int:
        """Consume ``size`` bytes; return their offset (no slicing)."""
        offset = self._cursor
        if offset + size > self._len:
            raise underflow(size, self._len - offset)
        self._cursor = offset + size
        return offset

    def _skip_pad(self, length: int) -> None:
        padding = -length % 4
        if padding:
            offset = self._advance(padding)
            pad = self._view[offset : offset + padding]
            if pad != _ZEROS[:padding]:
                raise XdrError(f"nonzero XDR padding {bytes(pad)!r}")
