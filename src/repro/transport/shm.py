"""A zero-copy shared-memory carrier: segment-offset page shipping.

:class:`ShmTransport` is the third carrier beside the simulator and
:class:`~repro.transport.tcp.TcpTransport`.  It speaks the exact same
:class:`~repro.transport.base.Transport` / ``Endpoint`` contract —
every runtime, workload, benchmark and test runs on it unmodified via
``make_world(transport="shm")`` — but nothing it ships crosses a
socket.  Control traffic flows through lock-free SPSC ring buffers in
a shared *connection segment*; bulk payloads (protected-page fills,
activity transfers, write-back batches) never enter the rings at all:
the sender parks the bytes once in its own *data segment* and ships a
``SEG_REQUEST`` / ``SEG_REPLY`` frame carrying only ``(segment,
offset, length, extent, epoch)`` — the swizzling target of a long
pointer becomes a segment offset, and the receiver reads the payload
in place through a ``memoryview``.

Layout and protocol
-------------------

Three kinds of POSIX shared-memory segment, all named under the
transport's random base name (``srpc-<hex>``):

* the **listener segment** (the base name itself) is the transport's
  published address — directory registrations carry it in the ``host``
  field with port 0.  Its header holds magic, protocol version, owner
  pid and a ready/closed word so a dialer can refuse a corpse.
* a **connection segment** (``<listener>.c<hex>``) is created by each
  dialer: a header with per-side closed flags, heartbeat words and the
  dialer's doorbell name, then two slotted SPSC rings
  (dialer→listener, listener→dialer).
  A slot is ``[seq:u64][len:u32][pad][payload]``; the producer writes
  length and payload first and publishes by storing ``seq = pos + 1``
  last, the consumer retires the slot by storing ``seq = pos + slots``
  (Vyukov's sequence scheme; aligned 8-byte stores are the only
  synchronisation on the data path).
* the **data segment** (``<listener>.d``) backs the zero-copy path:
  a :class:`SegmentAllocator` hands out epoch-stamped *extents*
  (``[stamp:u64][len:u32][pad]`` + payload, stamp written last as the
  publication barrier).  The receiver validates the segment epoch and
  extent stamp before reading and acknowledges with ``SEG_ACK`` when
  done, which unpins the extent for reuse.  The two-phase write-back
  of DESIGN.md §12 commits *in place*: ``WRITEBACK_PREPARE`` stages a
  :class:`SegmentLease` on the staged batch (the bytes stay in the
  sender's segment), and ``WRITEBACK_COMMIT`` applies through the
  staged view and releases the lease — the commit is the flip of the
  extent's stamp word from pinned to retired, not a re-ship of pages.

Nobody polls.  Every started transport owns one **doorbell**: a
datagram socket in the abstract namespace at ``"\\0" + name``, on
which its poller sleeps.  Whoever pushes a frame into a ring then
sends the consumer one byte; the poller takes one datagram off the
bell and *then* pumps every ring, so a frame pushed before its
datagram was sent is seen by the lap that datagram caused — a queued
datagram can cost an empty lap, never a waiting frame.  The sleep is
capped by :data:`HEARTBEAT_INTERVAL`, and each heartbeat lap also
rescans for dialers, so a bell that was never rung (full queue, dead
sender) makes an exchange one beat slower, not stuck, and a peer that
will never ring again is still found by its stale heartbeat word.  The
bell carries no data and no authority: a stranger's datagram is one
empty lap, and everything read after it is validated as before.

The exchange itself — ids, retransmission, at-most-once, faults,
clocks, dispatch — is :class:`~repro.transport.exchange.ExchangeTransport`;
this module is its shared-memory *link* plus the payload hooks that
ship a body by reference.  Peer death is detected by heartbeat words
going stale (or a closed flag) — never a hang — and a dying transport
bumps its data segment's epoch so any extent reference still in flight
fails validation instead of reading freed memory (no torn page can be
observed).

Every zero-copy mapping records a ``segment-handover`` trace event
(checked offline by rule SRPC330 and replayed by the SRPC4xx
sanitizer).  Segments a crashed process left behind are reaped by
:func:`purge_stale_segments`, keyed on the owner pid in each header.
"""

from __future__ import annotations

import itertools
import os
import queue
import socket
import struct
import threading
import time
import traceback
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.simnet.message import Message, MessageKind
from repro.transport.base import (
    HANDSHAKE_TIMEOUT,
    HandshakeError,
    TransportError,
)
from repro.transport.exchange import (
    MAX_HANDLERS,
    ExchangeEndpoint,
    ExchangeTransport,
)
from repro.transport.framing import (
    PROTOCOL_VERSION,
    STATUS_OK,
    FramingError,
    Frame,
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
    decode_frame,
    encode_frame,
)

#: Where the kernel exposes POSIX shared memory objects.
SHM_DIR = "/dev/shm"

#: Listener/data/connection segment names all start with this.
NAME_PREFIX = "srpc-"

#: Data segment capacity (``--segment-size``).
DEFAULT_SEGMENT_SIZE = 16 * 1024 * 1024

#: Slots per SPSC ring (``--ring-slots``).
DEFAULT_RING_SLOTS = 64

#: Payload capacity of one ring slot; frames that do not fit ship
#: their payload through the data segment instead.
DEFAULT_SLOT_BYTES = 4096

#: Seconds of silent heartbeat after which a peer is declared dead.
DEFAULT_PEER_TIMEOUT = 2.0

#: How often the poller bumps its heartbeat words — and the longest it
#: ever sleeps on its doorbell, so a lost datagram costs at most this.
HEARTBEAT_INTERVAL = 0.05

#: A pinned extent whose SEG_ACK never arrives is reclaimed after
#: this many seconds (the peer crashed mid-read, or a retained
#: write-back lease was orphaned by an aborted session).
PIN_TTL = 60.0

_LISTENER_MAGIC = b"SRPCLSN1"
_CONN_MAGIC = b"SRPCCON2"
_DATA_MAGIC = b"SRPCDAT1"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# Listener segment header offsets.
_L_MAGIC, _L_VERSION, _L_READY, _L_CLOSED, _L_PID = 0, 8, 12, 16, 24
_LISTENER_SEG_SIZE = 64

# Connection segment header offsets (rings follow at _CONN_HEADER).
_C_MAGIC, _C_VERSION, _C_READY = 0, 8, 12
_C_CLOSED_A, _C_CLOSED_B = 16, 20
_C_HB_A, _C_HB_B, _C_PID_A, _C_PID_B = 24, 32, 40, 48
# The dialer's doorbell name, NUL-padded (the listener's is its segment's).
_C_BELL_A, _C_BELL_LEN = 64, 64
_CONN_HEADER = 128

# Doorbell datagrams: one byte saying where to look, nothing more.
_BELL_RING = b"r"  # a frame was pushed into one of your rings
_BELL_SCAN = b"s"  # a dialer created a connection segment for you
_BELL_SPACE = b"f"  # a slot was freed in a ring a writer found full

# Data segment header offsets (extents follow at SegmentAllocator.HEADER).
_D_MAGIC, _D_VERSION, _D_EPOCH, _D_PID, _D_SIZE = 0, 8, 16, 24, 32

# Per-slot ring header: published sequence number, payload length.
_SLOT_HEADER = 16

# Per-extent header: publication stamp, payload length.
_EXTENT_HEADER = 16


def _ring_decode(data: bytes) -> Frame:
    """Decode one ring slot (a whole wire image, prefix included).

    Slots carry :func:`encode_frame` output verbatim — the 4-byte
    length prefix is redundant next to the slot's own length word, but
    keeping it means recorded frames are byte-identical across the TCP
    and shm carriers.
    """
    return decode_frame(memoryview(data)[4:])


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from the resource tracker.

    CPython (bpo-39959) registers shared memory with the tracker on
    *attach* as well as create, so any process that merely mapped a
    segment would unlink it on exit — yanking live memory out from
    under its surviving peers and spewing leak warnings.  Ownership is
    ours to manage: each segment is unlinked exactly once, by its
    creator's ``close()`` or by :func:`purge_stale_segments`.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker is an implementation detail
        pass


def _create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    _untrack(shm)
    return shm


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm)
    return shm


def _close_segment(
    shm: Optional[shared_memory.SharedMemory], unlink: bool = False
) -> None:
    """Best-effort unmap (and unlink) tolerating exported views.

    ``mmap.close`` refuses while zero-copy ``memoryview``s over the
    segment are still alive (``BufferError``); the mapping then simply
    lives until process exit.  ``unlink`` always proceeds — a POSIX
    shm object stays readable for everyone who already mapped it.
    """
    if shm is None:
        return
    if unlink:
        # Not shm.unlink(): that would send a second UNREGISTER to the
        # resource tracker (we already detached in ``_untrack``), and
        # the tracker daemon logs a KeyError for every unpaired one.
        try:
            import _posixshmem

            _posixshmem.shm_unlink(shm._name)
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - teardown best effort
            pass
    try:
        shm.close()
    except BufferError:
        # Zero-copy views over the mapping are still alive.  Hand the
        # mmap over to them (it unmaps when the last view dies), close
        # the fd now, and blank the object so its ``__del__`` does not
        # retry ``close()`` and re-raise at GC time.
        try:
            shm._mmap = None
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1
        except Exception:  # pragma: no cover - teardown best effort
            pass
    except Exception:  # pragma: no cover - teardown best effort
        pass


def _bell_address(name: str) -> bytes:
    """The abstract-namespace address of transport ``name``'s doorbell."""
    return b"\0" + name.encode("ascii")


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


def purge_stale_segments(prefix: str = NAME_PREFIX) -> List[str]:
    """Unlink segments whose recorded owner process is dead.

    Crash tests kill hosts with ``os._exit``, which never runs
    ``close()``; the segments they leave in :data:`SHM_DIR` carry the
    owner pid in their header, so anybody (the next test, a fresh
    host) can reap them.  Returns the names unlinked.
    """
    reaped: List[str] = []
    try:
        names = sorted(os.listdir(SHM_DIR))
    except OSError:  # pragma: no cover - no /dev/shm
        return reaped
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            shm = _attach_segment(name)
        except (FileNotFoundError, OSError, ValueError):
            continue
        try:
            magic = bytes(shm.buf[:8])
            if magic == _LISTENER_MAGIC:
                pid = _U64.unpack_from(shm.buf, _L_PID)[0]
            elif magic == _CONN_MAGIC:
                pid = _U64.unpack_from(shm.buf, _C_PID_A)[0]
            elif magic == _DATA_MAGIC:
                pid = _U64.unpack_from(shm.buf, _D_PID)[0]
            else:
                continue
            if not _pid_alive(pid):
                reaped.append(name)
        finally:
            _close_segment(shm, unlink=name in reaped)
    return reaped


class _Ring:
    """One SPSC slotted ring inside a connection segment.

    Exactly one process produces and exactly one consumes; within the
    producing process a lock serialises concurrent senders, so the
    cross-process protocol stays single-producer.  Publication relies
    on aligned 8-byte stores being atomic and ordered after the
    payload write (x86-64 TSO; CPython's ``pack_into`` into an aligned
    ``memoryview`` is a single 8-byte store).
    """

    def __init__(
        self, mv: memoryview, base: int, slots: int, slot_bytes: int
    ) -> None:
        self._mv = mv
        self._base = base
        self._slots = slots
        self._stride = _SLOT_HEADER + slot_bytes
        self.capacity = slot_bytes
        self._pos = 0  # this side's produce (or consume) position
        self._lock = threading.Lock()
        self.relieved = False  # consumer: the last pop found the ring full

    @staticmethod
    def region_size(slots: int, slot_bytes: int) -> int:
        return slots * (_SLOT_HEADER + slot_bytes)

    @staticmethod
    def format(mv: memoryview, base: int, slots: int, slot_bytes: int) -> None:
        """Initialise slot sequence numbers for an empty ring."""
        stride = _SLOT_HEADER + slot_bytes
        for index in range(slots):
            _U64.pack_into(mv, base + index * stride, index)
            _U32.pack_into(mv, base + index * stride + 8, 0)

    def try_push(self, data: bytes) -> bool:
        """Publish one frame; False when the ring is full."""
        if len(data) > self.capacity:
            raise FramingError(
                f"frame of {len(data)} bytes exceeds the ring slot "
                f"capacity of {self.capacity}"
            )
        with self._lock:
            pos = self._pos
            slot = self._base + (pos % self._slots) * self._stride
            if _U64.unpack_from(self._mv, slot)[0] != pos:
                return False
            body = slot + _SLOT_HEADER
            _U32.pack_into(self._mv, slot + 8, len(data))
            self._mv[body : body + len(data)] = data
            # The store of seq = pos + 1 is the publication barrier.
            _U64.pack_into(self._mv, slot, pos + 1)
            self._pos = pos + 1
            return True

    def try_pop(self) -> Optional[bytes]:
        """Consume one frame; None when the ring is empty."""
        pos = self._pos
        slot = self._base + (pos % self._slots) * self._stride
        if _U64.unpack_from(self._mv, slot)[0] != pos + 1:
            return None
        length = _U32.unpack_from(self._mv, slot + 8)[0]
        body = slot + _SLOT_HEADER
        data = bytes(self._mv[body : body + length])
        # Full: the slot behind this one is already a whole lap ahead.
        newest = self._base + ((pos - 1) % self._slots) * self._stride
        self.relieved = (
            _U64.unpack_from(self._mv, newest)[0] == pos + self._slots
        )
        # Retiring the slot hands it back to the producer's next lap.
        _U64.pack_into(self._mv, slot, pos + self._slots)
        self._pos = pos + 1
        return data


class _Waiter:
    """One blocked exchange (or ping, or dial) awaiting its frame: a
    lock held from birth, released by whoever settles it."""

    __slots__ = ("_settled", "value", "error")

    def __init__(self) -> None:
        self._settled = threading.Lock()
        self._settled.acquire()
        self.value: Optional[Frame] = None
        self.error: Optional[BaseException] = None

    def resolve(self, frame: Frame) -> None:
        if self.value is None and self.error is None:
            self.value = frame
            self._wake()

    def fail(self, error: BaseException) -> None:
        if self.value is None and self.error is None:
            self.error = error
            self._wake()

    def _wake(self) -> None:
        try:
            self._settled.release()
        except RuntimeError:  # a reply raced an abort: already awake
            pass

    def wait(self, timeout: float) -> Frame:
        if not self._settled.acquire(timeout=max(timeout, 0.0)):
            raise TimeoutError("no reply within the attempt timeout")
        if self.error is not None:
            raise self.error
        assert self.value is not None
        return self.value


class _Workers:
    """Handler threads fed through one ``SimpleQueue``.

    Handlers nest exchanges, so they never run on the poller; but the
    poller is the only submitter and nobody reads a result, which is
    all that ``ThreadPoolExecutor.submit`` spends its time on.  Threads
    are spawned on demand, as the executor does: a handler blocked in a
    nested exchange must not starve the request that unblocks it.
    """

    def __init__(self, serve, limit: int, prefix: str) -> None:
        self._serve, self._limit, self._prefix = serve, limit, prefix
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._idle = 0  # tasks finished and not yet claimed by a submit
        self._lock = threading.Lock()

    def submit(self, *task) -> None:
        self._tasks.put(task)
        with self._lock:
            if self._idle:
                self._idle -= 1
            elif len(self._threads) < self._limit:
                name = f"{self._prefix}_{len(self._threads)}"
                self._threads.append(threading.Thread(
                    target=self._run, name=name, daemon=True
                ))
                self._threads[-1].start()

    def _run(self) -> None:
        for task in iter(self._tasks.get, None):
            try:
                self._serve(*task)
            except Exception:  # noqa: BLE001 - the peer retransmits
                traceback.print_exc()
            with self._lock:
                self._idle += 1

    def shutdown(self) -> None:
        """Tell every worker to exit after its current task."""
        for _ in self._threads:
            self._tasks.put(None)


class _Connection:
    """One connection segment: two rings plus liveness words."""

    def __init__(
        self,
        name: str,
        shm: shared_memory.SharedMemory,
        side: str,
        slots: int,
        slot_bytes: int,
        owned: bool,
        ringer: socket.socket,
        peer_bell: Optional[bytes],
    ) -> None:
        self.name = name
        self.shm = shm
        self.side = side  # "a" dialed it, "b" accepted it
        self.owned = owned  # we created the segment (and unlink it)
        self._ringer = ringer  # the transport's bell-ringing socket
        self.peer_bell = peer_bell  # where the peer's poller sleeps
        self.peer: Optional[str] = None
        self.alive = True
        self.pending: Dict[int, _Waiter] = {}  # by exchange id or token
        self.greeting: Optional[_Waiter] = None  # a dial awaiting WELCOME
        self.space = threading.Event()  # set when the peer freed a tx slot
        mv = shm.buf
        self._mv = mv
        ring_a = _CONN_HEADER
        ring_b = ring_a + _Ring.region_size(slots, slot_bytes)
        if side == "a":
            self.tx = _Ring(mv, ring_a, slots, slot_bytes)
            self.rx = _Ring(mv, ring_b, slots, slot_bytes)
            self._hb_mine, self._hb_theirs = _C_HB_A, _C_HB_B
            self._closed_mine, self._closed_theirs = (
                _C_CLOSED_A,
                _C_CLOSED_B,
            )
        else:
            self.tx = _Ring(mv, ring_b, slots, slot_bytes)
            self.rx = _Ring(mv, ring_a, slots, slot_bytes)
            self._hb_mine, self._hb_theirs = _C_HB_B, _C_HB_A
            self._closed_mine, self._closed_theirs = (
                _C_CLOSED_B,
                _C_CLOSED_A,
            )
        self._hb_value = 0
        self._peer_hb = -1
        self._peer_hb_seen = time.monotonic()

    def beat(self) -> None:
        """Bump this side's heartbeat word."""
        self._hb_value += 1
        _U64.pack_into(self._mv, self._hb_mine, self._hb_value)

    def peer_stalled(self, timeout: float) -> bool:
        """True once the peer's heartbeat word has been silent too long."""
        current = _U64.unpack_from(self._mv, self._hb_theirs)[0]
        now = time.monotonic()
        if current != self._peer_hb:
            self._peer_hb = current
            self._peer_hb_seen = now
            return False
        return now - self._peer_hb_seen > timeout

    def peer_closed(self) -> bool:
        return _U32.unpack_from(self._mv, self._closed_theirs)[0] != 0

    def mark_closed(self) -> None:
        try:
            _U32.pack_into(self._mv, self._closed_mine, 1)
        except Exception:  # pragma: no cover - segment already unmapped
            pass

    def ring(self, note: bytes = _BELL_RING) -> None:
        """Wake the peer's poller.  Best effort: a full queue means a
        wake-up is already pending, and a bell that is lost or has no
        listener costs the peer one heartbeat, never a frame."""
        if self.peer_bell is not None:
            try:
                self._ringer.sendto(note, self.peer_bell)
            except OSError:
                pass

    def write(self, data: bytes, timeout: float) -> None:
        """Push one frame and ring the peer; while the ring is full,
        sleep until the peer reports a freed slot (``_BELL_SPACE``)."""
        deadline = time.monotonic() + timeout
        while True:
            if not self.alive:
                raise ConnectionResetError(
                    f"connection {self.name} is closed"
                )
            if self.tx.try_push(data):
                self.ring()
                return
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"ring to {self.peer!r} full for {timeout}s"
                )
            self.space.wait(min(deadline - now, HEARTBEAT_INTERVAL))
            self.space.clear()

    def try_write(self, data: bytes, timeout: float = 0.2) -> bool:
        """Push best-effort (acks, goodbyes); False if it did not fit."""
        try:
            self.write(data, timeout)
            return True
        except (TimeoutError, ConnectionResetError, ValueError, TypeError,
                AttributeError):  # the last three: released under us
            return False

    def abort(self, error: Exception) -> None:
        """Mark dead and fail every outstanding waiter."""
        self.alive = False
        self.space.set()
        waiters = list(self.pending.values())
        if self.greeting is not None:
            waiters.append(self.greeting)
        for waiter in waiters:
            waiter.fail(error)
        self.pending.clear()

    def release(self) -> None:
        """Unmap (and unlink, if we created the segment)."""
        self._mv = memoryview(b"")
        self.tx = self.rx = None  # type: ignore[assignment]
        _close_segment(self.shm, unlink=self.owned)


class SegmentLease:
    """A receiver's claim on one extent of a peer's data segment.

    Attached to :attr:`Message.carrier_ref` whenever a payload is a
    zero-copy view.  The transport settles the lease (sends the
    ``SEG_ACK`` that unpins the extent) as soon as the handler
    returns, *unless* the handler called :meth:`retain` — the staged
    write-back does exactly that, keeping the batch pinned in the
    sender's segment until ``WRITEBACK_COMMIT`` applies it in place
    and releases.
    """

    def __init__(
        self,
        transport: "ShmTransport",
        conn: _Connection,
        segment: str,
        offset: int,
        extent: int,
        epoch: int,
        view: memoryview,
    ) -> None:
        self._transport = transport
        self._conn = conn
        self.segment = segment
        self.offset = offset
        self.extent = extent
        self.epoch = epoch
        self.view: Optional[memoryview] = view
        self.retained = False
        self._released = False
        self._lock = threading.Lock()

    def retain(self) -> None:
        """Keep the extent pinned past the handler's return."""
        with self._lock:
            if self._released:
                raise TransportError(
                    f"lease on {self.segment}+{self.offset} already released"
                )
            self.retained = True

    def validate(self) -> None:
        """Re-check the extent's stamp and epoch (tear detection)."""
        self._transport._validate_extent(
            self.segment, self.offset, self.extent, self.epoch
        )

    def release(self) -> None:
        """Drop the view and acknowledge the extent back to its owner."""
        with self._lock:
            if self._released:
                return
            self._released = True
            self.view = None
        self._transport._lease_released(self)
        ack = encode_frame(
            SegAck(segment=self.segment, offset=self.offset,
                   extent=self.extent)
        )
        # Best effort: a dead connection means the owner is reaping
        # pins for this peer (or expiring them by TTL) anyway.
        self._conn.try_write(ack)

    def settle(self) -> None:
        """Release unless the handler retained the lease."""
        if not self.retained:
            self.release()


class SegmentPayload:
    """A payload already resident in this transport's data segment.

    The fully zero-copy *send* path: ``reserve_payload`` hands out a
    writable view straight into the data segment, the caller fills it
    (or decodes/encodes in place), and ``exchange`` ships only the
    offset — no per-byte work happens in the carrier at all.  Plain
    ``bytes`` payloads still work everywhere and cost the carrier one
    copy into the segment.
    """

    __slots__ = ("offset", "stamp", "view", "length", "published")

    def __init__(
        self, offset: int, stamp: int, view: memoryview, length: int
    ) -> None:
        self.offset = offset
        self.stamp = stamp
        self.view = view
        self.length = length
        self.published = False

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0


class SegmentAllocator:
    """Epoch-stamped extent allocator over one data segment.

    Extents are bump-allocated and *pinned* until the receiving peer
    acknowledges them (``SEG_ACK``) — the allocator skips pinned
    regions when the bump pointer laps the segment.  Every extent
    carries a monotonically increasing stamp written *after* its
    payload: the stamp both publishes the bytes and lets a reader
    detect a stale or torn reference (stamp mismatch).  The segment
    header's epoch word invalidates every outstanding reference at
    once — bumped when the owner shuts down or a peer is declared
    dead, so a crashed owner's extents fail validation instead of
    being read half-written.
    """

    HEADER = 64

    def __init__(self, name: str, size: int) -> None:
        if size < self.HEADER + _EXTENT_HEADER + 64:
            raise ValueError(f"data segment size {size} too small")
        self.name = name
        self.size = size
        self.shm = _create_segment(name, size)
        self._mv = self.shm.buf
        # The magic goes in LAST: purge_stale_segments treats a valid
        # magic with a dead (or zero) owner pid as reapable, so the pid
        # must be visible before the segment identifies itself.
        _U32.pack_into(self._mv, _D_VERSION, PROTOCOL_VERSION)
        _U64.pack_into(self._mv, _D_EPOCH, 1)
        _U64.pack_into(self._mv, _D_PID, os.getpid())
        _U64.pack_into(self._mv, _D_SIZE, size)
        self._mv[_D_MAGIC : _D_MAGIC + 8] = _DATA_MAGIC
        self._epoch = 1
        self._stamps = itertools.count(1)
        self._bump = self.HEADER
        # offset -> [end, stamp, pinned_at, peer]
        self._pins: Dict[int, List] = {}
        # A condition: a reserver short of room sleeps until an unpin.
        self._lock = threading.Condition()

    @property
    def epoch(self) -> int:
        return self._epoch

    def bump_epoch(self) -> None:
        """Invalidate every outstanding extent reference at once."""
        with self._lock:
            self._epoch += 1
            _U64.pack_into(self._mv, _D_EPOCH, self._epoch)

    def pinned_bytes(self) -> int:
        with self._lock:
            return sum(end - off for off, (end, *_rest) in self._pins.items())

    def reserve(
        self,
        length: int,
        peer: Optional[str] = None,
        timeout: float = HANDSHAKE_TIMEOUT,
    ) -> Tuple[int, int, memoryview]:
        """Pin a fresh extent; returns ``(offset, stamp, view)``.

        The view is the writable payload region.  The extent is not
        visible to readers until :meth:`publish` stamps it.
        """
        need = _EXTENT_HEADER + length
        need += (-need) % 64
        if need > self.size - self.HEADER:
            raise TransportError(
                f"payload of {length} bytes exceeds the {self.size}-byte "
                f"data segment {self.name!r} (raise --segment-size)"
            )
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                offset = self._find(need)
                if offset is not None:
                    break
                if self.expire_pins():
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"data segment {self.name!r} has no room for "
                        f"{length} bytes ({len(self._pins)} extents "
                        "pinned; raise --segment-size)"
                    )
                # Crashed readers never ack: their pins only age out.
                self._lock.wait(min(remaining, HEARTBEAT_INTERVAL))
            stamp = next(self._stamps)
            self._pins[offset] = [
                offset + need, stamp, time.monotonic(), peer,
            ]
        body = offset + _EXTENT_HEADER
        _U32.pack_into(self._mv, offset + 8, length)
        return offset, stamp, self._mv[body : body + length]

    def _find(self, need: int) -> Optional[int]:
        """First gap of ``need`` bytes not overlapping a pinned extent."""
        pins = sorted(
            (off, entry[0]) for off, entry in self._pins.items()
        )
        for start in (self._bump, self.HEADER):
            pos = start
            while pos + need <= self.size:
                clash = next(
                    (p for p in pins if p[0] < pos + need and p[1] > pos),
                    None,
                )
                if clash is None:
                    self._bump = pos + need
                    return pos
                pos = clash[1]
        return None

    def publish(self, offset: int) -> None:
        """Stamp the extent — the store that makes it readable."""
        with self._lock:
            entry = self._pins.get(offset)
            if entry is None:
                raise TransportError(
                    f"publish of unreserved extent at offset {offset}"
                )
            stamp = entry[1]
        _U64.pack_into(self._mv, offset, stamp)

    def release(self, offset: int, stamp: int) -> bool:
        """Unpin the extent, guarded by its stamp (stale acks no-op)."""
        with self._lock:
            entry = self._pins.get(offset)
            if entry is None or entry[1] != stamp:
                return False
            del self._pins[offset]
            self._lock.notify_all()
            return True

    def reroute(self, offset: int, peer: str) -> None:
        """Charge the extent at ``offset`` to ``peer``, so that it is
        reaped with that peer's connection (:meth:`release_peer`)."""
        with self._lock:
            entry = self._pins.get(offset)
            if entry is not None:
                entry[3] = peer

    def release_peer(self, peer: str) -> int:
        """Unpin everything shipped to a now-dead peer."""
        with self._lock:
            stale = [
                off for off, entry in self._pins.items()
                if entry[3] == peer
            ]
            for off in stale:
                del self._pins[off]
            self._lock.notify_all()
            return len(stale)

    def expire_pins(self, ttl: float = PIN_TTL) -> int:
        """Reclaim pins whose SEG_ACK never arrived (crashed readers)."""
        now = time.monotonic()
        with self._lock:
            stale = [
                off for off, entry in self._pins.items()
                if now - entry[2] > ttl
            ]
            for off in stale:
                del self._pins[off]
            self._lock.notify_all()
            return len(stale)

    def close(self) -> None:
        """Invalidate outstanding references, unmap and unlink."""
        try:
            self.bump_epoch()
        except (ValueError, TypeError):  # pragma: no cover - unmapped
            pass
        self._mv = memoryview(b"")
        _close_segment(self.shm, unlink=True)


class ShmEndpoint(ExchangeEndpoint):
    """The one address space a :class:`ShmTransport` hosts."""

    # Bound in this class's own dict, not just inherited: the
    # benchmark's tracer patches ``vars(cls)["send"]`` per carrier.
    send = ExchangeEndpoint.send


class ShmTransport(ExchangeTransport):
    """Ring-buffered, segment-offset-shipped at-most-once exchanges.

    The rings work identically across threads and across processes.
    ``peers`` maps site ids to listener segment names; directory
    records carry the segment name in their ``host`` field (port 0).
    The other keyword options are
    :class:`~repro.transport.exchange.ExchangeTransport`'s.
    """

    endpoint_class = ShmEndpoint

    # A failed dial has already cost a missing segment or a whole
    # HANDSHAKE_TIMEOUT of silence: one heartbeat more, then try again.
    CONNECT_BACKOFF = HEARTBEAT_INTERVAL

    def __init__(
        self,
        site_id: str,
        *,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        ring_slots: int = DEFAULT_RING_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        peer_timeout: float = DEFAULT_PEER_TIMEOUT,
        **exchange_options,
    ) -> None:
        if ring_slots < 2 or slot_bytes < 256:
            raise ValueError(
                f"bad ring geometry slots={ring_slots} bytes={slot_bytes}"
            )
        super().__init__(site_id, **exchange_options)
        self._segment_size = segment_size
        self._ring_slots = ring_slots
        self._slot_bytes = slot_bytes
        self._peer_timeout = peer_timeout
        # Payloads above this ship as segment extents; the threshold
        # leaves headroom in the slot for the frame envelope.
        self.spill_threshold = slot_bytes - 512
        self.name = NAME_PREFIX + os.urandom(6).hex()
        self.handovers = 0
        self._workers = _Workers(
            self._serve_request, MAX_HANDLERS, f"shm-{site_id}"
        )
        self._allocator: Optional[SegmentAllocator] = None
        self._listener_shm: Optional[shared_memory.SharedMemory] = None
        # The poller sleeps in a timed recv() on ``_bell``; ringing goes
        # out through a second, non-blocking socket so it never waits.
        self._bell: Optional[socket.socket] = None
        self._ringer: Optional[socket.socket] = None
        self._conns: Dict[str, _Connection] = {}  # segment name -> conn
        self._live: Tuple[_Connection, ...] = ()  # the poller's snapshot
        self._by_peer: Dict[str, _Connection] = {}
        self._accepting: Dict[str, Tuple[_Connection, float]] = {}
        self._seen_conn_names: Set[str] = set()
        self._conn_lock = threading.Lock()
        self._dial_lock = threading.Lock()
        self._attached: Dict[str, Tuple[shared_memory.SharedMemory,
                                        memoryview]] = {}
        self._attach_lock = threading.Lock()
        self._deferred = threading.local()
        self._all_deferred: Set[SegmentLease] = set()
        self._deferred_lock = threading.Lock()
        self._poller: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Optional[str]:
        """Create segments, start the poller; return the address
        (the listener segment name) or ``None`` when not listening."""
        if not os.path.isdir(SHM_DIR):  # pragma: no cover - exotic host
            raise TransportError(
                f"shared-memory carrier needs {SHM_DIR} (POSIX shm)"
            )
        self._mark_started()
        self._allocator = SegmentAllocator(
            self.name + ".d", self._segment_size
        )
        # Abstract namespace: no file to leak, gone with the process.
        self._bell = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        self._bell.bind(_bell_address(self.name))
        self._ringer = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        self._ringer.setblocking(False)
        if self._listen:
            shm = _create_segment(self.name, _LISTENER_SEG_SIZE)
            mv = shm.buf
            # Magic last: a concurrent purge must never see the magic
            # with the owner-pid word still zero (it would reap us).
            _U32.pack_into(mv, _L_VERSION, self._protocol_version)
            _U64.pack_into(mv, _L_PID, os.getpid())
            _U32.pack_into(mv, _L_CLOSED, 0)
            _U32.pack_into(mv, _L_READY, 1)
            mv[_L_MAGIC : _L_MAGIC + 8] = _LISTENER_MAGIC
            self._listener_shm = shm
            self.address = self.name
        self._poller = threading.Thread(
            target=self._poll_loop,
            name=f"shm-poll-{self.site_id}",
            daemon=True,
        )
        self._poller.start()
        return self.address

    def close(self) -> None:
        """Say goodbye, invalidate the segment epoch, unlink everything."""
        if self._closed.is_set():
            return
        self._closed.set()
        # Settle zero-copy reply leases still deferred anywhere.
        with self._deferred_lock:
            leases = list(self._all_deferred)
        for lease in leases:
            lease.release()
        goodbye = encode_frame(Goodbye(self.site_id, "shutting down"))
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            if conn.alive:
                conn.mark_closed()
                conn.try_write(goodbye, timeout=0.05)
            conn.abort(ConnectionResetError("transport closed"))
        if self._listener_shm is not None:
            try:
                _U32.pack_into(self._listener_shm.buf, _L_CLOSED, 1)
            except (ValueError, TypeError):  # pragma: no cover
                pass
        self._stop.set()
        if self._poller is not None:
            try:
                self._ringer.sendto(_BELL_RING, _bell_address(self.name))
            except OSError:  # pragma: no cover - one heartbeat slower
                pass
            self._poller.join(HANDSHAKE_TIMEOUT)
        self._workers.shutdown()
        for sock in (self._bell, self._ringer):
            if sock is not None:
                sock.close()
        with self._conn_lock:
            conns = list(self._conns.values())
            self._conns.clear()
            self._live = ()
            self._by_peer.clear()
            for conn, _deadline in self._accepting.values():
                conns.append(conn)
            self._accepting.clear()
        for conn in conns:
            conn.release()
        with self._attach_lock:
            attached = list(self._attached.values())
            self._attached.clear()
        for shm, _mv in attached:
            _close_segment(shm)
        if self._allocator is not None:
            self._allocator.close()
        _close_segment(self._listener_shm, unlink=True)
        self._listener_shm = None

    # -- peer addressing ------------------------------------------------------

    def add_peer(self, site_id: str, address: Union[str, Tuple]) -> None:
        """Teach this transport which listener segment ``site_id`` owns.

        Accepts a bare segment name or a directory-shaped ``(host,
        port)`` pair whose host carries the segment name.
        """
        if isinstance(address, tuple):
            address = address[0]
        self._peers[site_id] = str(address)

    def _address_of(self, host: str, port: int) -> str:
        return host

    # -- zero-copy send buffers ----------------------------------------------

    def reserve_payload(self, length: int) -> SegmentPayload:
        """A writable view straight into this transport's data segment.

        Fill it and pass the :class:`SegmentPayload` to ``exchange`` /
        ``send`` in place of ``bytes``: the carrier then ships only
        the segment offset — zero per-byte cost end to end.
        """
        self._check_running()
        offset, stamp, view = self._allocator.reserve(length)
        return SegmentPayload(offset, stamp, view, length)

    # -- payload hooks: bodies shipped by reference ---------------------------

    def _spill(self, payload) -> SegmentPayload:
        """``payload`` published in the data segment: it is there
        already, or too big for a ring slot."""
        if isinstance(payload, SegmentPayload):
            spill = payload
        else:
            spill = self.reserve_payload(len(payload))
            spill.view[:] = payload
        if not spill.published:
            self._allocator.publish(spill.offset)
            spill.published = True
        return spill

    def _request_frame(
        self, exchange_id: int, dst: str, kind: MessageKind,
        expects_reply: bool, payload: Union[bytes, SegmentPayload],
    ):
        if threading.current_thread() is self._poller:
            raise TransportError(
                "exchange() must not be called from the poller thread"
            )
        self._flush_deferred()
        if not isinstance(payload, SegmentPayload) and (
            len(payload) <= self.spill_threshold
        ):
            return super()._request_frame(
                exchange_id, dst, kind, expects_reply, bytes(payload)
            )
        spill = self._spill(payload)
        request = SegRequest(
            exchange_id=exchange_id,
            src=self.site_id,
            dst=dst,
            kind=kind.value,
            expects_reply=expects_reply,
            segment=self._allocator.name,
            offset=spill.offset + _EXTENT_HEADER,
            length=spill.length,
            extent=spill.stamp,
            epoch=self._allocator.epoch,
            clock=self.endpoint.vclock.tick_wire(),
        )
        return request, (spill.view if spill.view is not None else b"")

    def _abandon(self, frame: Frame) -> None:
        # No reply, so nobody will ack the extent: unpin it now.
        if isinstance(frame, SegRequest):
            self._allocator.release(
                frame.offset - _EXTENT_HEADER, frame.extent
            )

    def _reply_payload(self, dst: str, reply: SegReply) -> memoryview:
        """Map a reply extent; the ack is deferred until this thread's
        next exchange so the caller can consume the view first."""
        conn = self._by_peer.get(dst)
        if conn is None or not conn.alive:
            raise TransportError(
                f"reply extent from {dst!r} arrived on a dead connection"
            )
        view, lease = self._map_extent(
            conn, dst, "reply", reply.segment, reply.offset,
            reply.length, reply.extent, reply.epoch,
        )
        self._defer_release(lease)
        return view

    def _deliver(
        self, conn: _Connection, request: SegRequest, kind: MessageKind
    ) -> bytes:
        payload, lease = self._map_extent(
            conn, request.src, request.kind, request.segment,
            request.offset, request.length, request.extent, request.epoch,
        )
        try:
            body = self.endpoint.handle(
                Message(
                    src=request.src,
                    dst=request.dst,
                    kind=kind,
                    payload=payload,
                    carrier_ref=lease,
                )
            )
            if not lease.retained:
                # The handler is done with the view: re-check for a
                # tear before the extent goes back to its owner.
                lease.validate()
        finally:
            lease.settle()
        return body

    def _reply_frame(
        self, request: Union[Request, SegRequest],
        body: Union[bytes, SegmentPayload],
    ) -> Frame:
        if not isinstance(body, SegmentPayload) and (
            len(body) <= self.spill_threshold
        ):
            return super()._reply_frame(request, bytes(body))
        spill = self._spill(body)
        # Re-route the pin to the requester so a dead peer's unacked
        # reply extent is reaped with its connection.
        self._allocator.reroute(spill.offset, request.src)
        return SegReply(
            exchange_id=request.exchange_id,
            status=STATUS_OK,
            segment=self._allocator.name,
            offset=spill.offset + _EXTENT_HEADER,
            length=spill.length,
            extent=spill.stamp,
            epoch=self._allocator.epoch,
            clock=self.endpoint.vclock.tick_wire(),
        )

    def _defer_release(self, lease: SegmentLease) -> None:
        acks = getattr(self._deferred, "acks", None)
        if acks is None:
            acks = []
            self._deferred.acks = acks
        acks.append(lease)
        with self._deferred_lock:
            self._all_deferred.add(lease)

    def _flush_deferred(self) -> None:
        acks = getattr(self._deferred, "acks", None)
        if not acks:
            return
        pending, self._deferred.acks = list(acks), []
        for lease in pending:
            lease.release()

    def _lease_released(self, lease: SegmentLease) -> None:
        with self._deferred_lock:
            self._all_deferred.discard(lease)

    # -- connection management ------------------------------------------------

    def _acquire(self, dst: str, name: str) -> _Connection:
        conn = self._by_peer.get(dst)
        if conn is not None and conn.alive:
            return conn
        with self._dial_lock:
            conn = self._by_peer.get(dst)
            if conn is not None and conn.alive:
                return conn
            return self._dial(dst, name)

    def _dial(self, dst: str, listener_name: str) -> _Connection:
        try:
            listener = _attach_segment(listener_name)
        except (FileNotFoundError, OSError, ValueError) as exc:
            raise ConnectionRefusedError(
                f"no listener segment {listener_name!r} ({exc})"
            ) from None
        try:
            if bytes(listener.buf[:8]) != _LISTENER_MAGIC:
                raise ConnectionRefusedError(
                    f"segment {listener_name!r} is not a listener"
                )
            if _U32.unpack_from(listener.buf, _L_READY)[0] != 1 or (
                _U32.unpack_from(listener.buf, _L_CLOSED)[0] != 0
            ):
                raise ConnectionRefusedError(
                    f"listener {listener_name!r} is not accepting"
                )
            pid = _U64.unpack_from(listener.buf, _L_PID)[0]
            if not _pid_alive(pid):
                raise ConnectionRefusedError(
                    f"listener {listener_name!r} owner (pid {pid}) is dead"
                )
        finally:
            _close_segment(listener)
        conn_name = f"{listener_name}.c{os.urandom(4).hex()}"
        size = _CONN_HEADER + 2 * _Ring.region_size(
            self._ring_slots, self._slot_bytes
        )
        shm = _create_segment(conn_name, size)
        mv = shm.buf
        # Pid before magic: purge_stale_segments reaps any magicked
        # segment whose owner-pid word reads zero or dead.
        _U32.pack_into(mv, _C_VERSION, self._protocol_version)
        _U64.pack_into(mv, _C_PID_A, os.getpid())
        bell = self.name.encode("ascii")
        mv[_C_BELL_A : _C_BELL_A + len(bell)] = bell
        mv[_C_MAGIC : _C_MAGIC + 8] = _CONN_MAGIC
        ring_a = _CONN_HEADER
        ring_b = ring_a + _Ring.region_size(self._ring_slots,
                                            self._slot_bytes)
        _Ring.format(mv, ring_a, self._ring_slots, self._slot_bytes)
        _Ring.format(mv, ring_b, self._ring_slots, self._slot_bytes)
        _U32.pack_into(mv, _C_READY, 1)
        conn = _Connection(
            conn_name, shm, "a", self._ring_slots, self._slot_bytes,
            owned=True, ringer=self._ringer,
            peer_bell=_bell_address(listener_name),
        )
        conn.peer = dst
        conn.beat()
        # The poller consumes the receive ring from the start (SPSC
        # stays SPSC) and hands the listener's greeting to this thread.
        greeting = conn.greeting = _Waiter()
        with self._conn_lock:
            self._conns[conn_name] = conn
            self._live = tuple(self._conns.values())
        try:
            conn.write(
                encode_frame(Hello(self._protocol_version, self.site_id)),
                HANDSHAKE_TIMEOUT,
            )
            conn.ring(_BELL_SCAN)
            frame = greeting.wait(HANDSHAKE_TIMEOUT)
        except (ConnectionError, TimeoutError) as exc:
            self._drop_conn(conn, exc)
            raise ConnectionRefusedError(
                f"no WELCOME from {dst!r} within {HANDSHAKE_TIMEOUT}s "
                f"({exc})"
            ) from None
        try:
            self._judge_welcome(dst, frame)
        except HandshakeError as refusal:
            self._drop_conn(conn, refusal)
            raise
        conn.greeting = None
        with self._conn_lock:
            self._by_peer[dst] = conn
        with self._lock:
            self.dials[dst] = self.dials.get(dst, 0) + 1
        return conn

    def _drop_conn(self, conn: _Connection, error: Exception) -> None:
        conn.mark_closed()
        conn.abort(error)
        with self._conn_lock:
            self._conns.pop(conn.name, None)
            self._live = tuple(self._conns.values())
            if conn.peer and self._by_peer.get(conn.peer) is conn:
                del self._by_peer[conn.peer]
        if conn.peer and self._allocator is not None:
            self._allocator.release_peer(conn.peer)
        conn.release()

    def _attempt(
        self, conn: _Connection, ident: int, encoded: bytes, copies: int,
        timeout: float, sent: Callable[[int], None],
    ) -> Frame:
        # The poller finds the waiter by id and hands the frame over.
        waiter = conn.pending[ident] = _Waiter()
        try:
            for copy in range(copies):
                conn.write(encoded, timeout)
                sent(copy)
            return waiter.wait(timeout)
        finally:
            conn.pending.pop(ident, None)

    def _push_reply(self, conn: _Connection, encoded: bytes) -> None:
        # The peer will retransmit and hit the reply cache if this
        # push fails (ring full, connection torn down).
        conn.try_write(encoded, timeout=1.0)

    # -- poller ---------------------------------------------------------------

    def _poll_loop(self) -> None:
        """Sleep on the doorbell until the next heartbeat at the
        latest, take one datagram off it, *then* look at every ring."""
        bell = self._bell
        next_beat = 0.0
        while not self._stop.is_set():
            now = time.monotonic()
            note = None
            if now < next_beat:
                try:
                    bell.settimeout(next_beat - now)
                    note = bell.recv(8)
                except socket.timeout:
                    pass
                except OSError:  # pragma: no cover - closed under us
                    return
                now = time.monotonic()
            beat = now >= next_beat
            if beat:
                next_beat = now + HEARTBEAT_INTERVAL
            if note == _BELL_SPACE:
                for conn in self._live:
                    conn.space.set()
            if self._listen and (beat or note == _BELL_SCAN):
                try:
                    self._scan_for_dialers()
                except Exception:  # pragma: no cover - defensive
                    pass
            if self._accepting:
                self._pump_accepting(now)
            for conn in self._live:
                if not conn.alive:
                    continue
                try:
                    self._pump(conn)
                except Exception:  # pragma: no cover - defensive
                    self._drop_conn(
                        conn, ConnectionResetError("poll failure")
                    )
                    continue
                if beat:
                    try:
                        conn.beat()
                        gone = conn.peer_closed() or (
                            conn.peer_stalled(self._peer_timeout)
                        )
                    except Exception:  # segment released under us
                        gone = True
                    if gone:
                        self._drop_conn(
                            conn,
                            ConnectionResetError(
                                f"peer {conn.peer!r} is gone"
                            ),
                        )
            if beat and self._allocator is not None:
                self._allocator.expire_pins()

    def _scan_for_dialers(self) -> None:
        """Attach fresh connection segments dialers created for us."""
        prefix = self.name + ".c"
        try:
            names = {
                name for name in os.listdir(SHM_DIR)
                if name.startswith(prefix)
            }
        except OSError:  # pragma: no cover - /dev/shm vanished
            return
        # Remembered only while the segment exists: bounded by /dev/shm.
        self._seen_conn_names &= names
        for name in names - self._seen_conn_names:
            self._seen_conn_names.add(name)
            try:
                shm = _attach_segment(name)
            except (FileNotFoundError, OSError, ValueError):
                continue
            if bytes(shm.buf[:8]) != _CONN_MAGIC or (
                _U32.unpack_from(shm.buf, _C_READY)[0] != 1
            ):
                _close_segment(shm)
                self._seen_conn_names.discard(name)
                continue
            bell = bytes(
                shm.buf[_C_BELL_A : _C_BELL_A + _C_BELL_LEN]
            ).rstrip(b"\0")
            if not bell.startswith(NAME_PREFIX.encode()):
                bell = None  # not one of ours: never ring it
            conn = _Connection(
                name, shm, "b", self._ring_slots, self._slot_bytes,
                owned=False, ringer=self._ringer,
                peer_bell=bell and b"\0" + bell,
            )
            _U64.pack_into(shm.buf, _C_PID_B, os.getpid())
            conn.beat()
            self._accepting[name] = (
                conn, time.monotonic() + HANDSHAKE_TIMEOUT
            )

    def _pump_accepting(self, now: float) -> None:
        """Finish handshakes on connections still awaiting HELLO."""
        for name, (conn, deadline) in list(self._accepting.items()):
            data = conn.rx.try_pop()
            if data is None:
                if now > deadline:
                    del self._accepting[name]
                    conn.release()
                continue
            del self._accepting[name]
            try:
                frame = _ring_decode(data)
            except FramingError:
                conn.release()
                continue
            answer = self._answer_hello(frame)
            conn.try_write(encode_frame(answer))
            if isinstance(answer, Goodbye):
                conn.release()
                continue
            conn.peer = frame.site_id
            with self._conn_lock:
                self._conns[name] = conn
                self._live = tuple(self._conns.values())
                self._by_peer.setdefault(frame.site_id, conn)

    def _pump(self, conn: _Connection) -> None:
        """Drain one connection's receive ring."""
        while True:
            data = conn.rx.try_pop()
            if data is None:
                return
            try:
                frame = _ring_decode(data)
            except FramingError:
                self._drop_conn(
                    conn, ConnectionResetError("malformed frame")
                )
                return
            if conn.rx.relieved:
                conn.ring(_BELL_SPACE)
            if isinstance(frame, (Request, SegRequest)):
                self._workers.submit(conn, frame)
            elif isinstance(frame, (Reply, SegReply)):
                waiter = conn.pending.get(frame.exchange_id)
                # A late reply to an exchange that already timed out
                # and completed via retransmission is simply dropped.
                if waiter is not None:
                    waiter.resolve(frame)
            elif isinstance(frame, Ping):
                conn.try_write(encode_frame(Pong(frame.token)))
            elif isinstance(frame, Pong):
                waiter = conn.pending.get(frame.token)
                if waiter is not None:
                    waiter.resolve(frame)
            elif isinstance(frame, SegAck):
                if self._allocator is not None:
                    self._allocator.release(
                        frame.offset - _EXTENT_HEADER, frame.extent
                    )
            elif conn.greeting is not None and isinstance(
                frame, (Welcome, Goodbye)
            ):
                conn.greeting.resolve(frame)  # the dialing thread judges
            elif isinstance(frame, Goodbye):
                self._drop_conn(
                    conn,
                    ConnectionResetError(
                        f"peer said goodbye: {frame.reason}"
                    ),
                )
                return

    # -- segment mapping ------------------------------------------------------

    def _data_view(self, segment: str) -> memoryview:
        with self._attach_lock:
            entry = self._attached.get(segment)
            if entry is None:
                try:
                    shm = _attach_segment(segment)
                except (FileNotFoundError, OSError, ValueError) as exc:
                    raise TransportError(
                        f"cannot attach data segment {segment!r} ({exc})"
                    ) from None
                if bytes(shm.buf[:8]) != _DATA_MAGIC:
                    _close_segment(shm)
                    raise TransportError(
                        f"segment {segment!r} is not a data segment"
                    )
                entry = (shm, shm.buf)
                self._attached[segment] = entry
            return entry[1]

    def _validate_extent(
        self, segment: str, offset: int, extent: int, epoch: int
    ) -> memoryview:
        mv = self._data_view(segment)
        seg_epoch = _U64.unpack_from(mv, _D_EPOCH)[0]
        if seg_epoch != epoch:
            raise TransportError(
                f"stale extent reference into {segment!r}: frame epoch "
                f"{epoch} vs segment epoch {seg_epoch} (owner restarted "
                "or shut down)"
            )
        header = offset - _EXTENT_HEADER
        if header < SegmentAllocator.HEADER or offset > len(mv):
            raise TransportError(
                f"extent offset {offset} out of bounds for {segment!r}"
            )
        stamp = _U64.unpack_from(mv, header)[0]
        if stamp != extent:
            raise TransportError(
                f"torn extent at {segment!r}+{offset}: stamp {stamp} "
                f"vs expected {extent} (extent reused or unpublished)"
            )
        return mv

    def _map_extent(
        self,
        conn: _Connection,
        src: str,
        kind: str,
        segment: str,
        offset: int,
        length: int,
        extent: int,
        epoch: int,
    ) -> Tuple[memoryview, SegmentLease]:
        """Validate and map one extent; records the handover event."""
        mv = self._validate_extent(segment, offset, extent, epoch)
        stored = _U32.unpack_from(mv, offset - 8)[0]
        if stored != length:
            raise TransportError(
                f"torn extent at {segment!r}+{offset}: length {stored} "
                f"vs expected {length}"
            )
        view = mv[offset : offset + length]
        lease = SegmentLease(
            self, conn, segment, offset, extent, epoch, view
        )
        self.handovers += 1
        if self.stats.tracing:
            data = {
                "src": src,
                "dst": self.site_id,
                "kind": kind,
                "segment": segment,
                "offset": offset,
                "length": length,
                "extent": extent,
                "epoch": epoch,
                # The live epoch word, re-read at mapping time: rule
                # SRPC330 checks it against the frame's epoch offline.
                "segment_epoch": _U64.unpack_from(mv, _D_EPOCH)[0],
            }
            data.update(self.endpoint.stamp())
            self.stats.record_event(
                self.clock.now,
                "segment-handover",
                f"{src}->{self.site_id} {kind} {length}B in place "
                f"@{segment}+{offset}",
                data=data,
            )
        return view, lease
