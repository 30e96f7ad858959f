"""A zero-copy shared-memory carrier: segment-offset page shipping.

:class:`ShmTransport` is the third carrier beside the simulator and
:class:`~repro.transport.tcp.TcpTransport`.  It speaks the exact same
:class:`~repro.transport.base.Transport` / ``Endpoint`` contract —
every runtime, workload, benchmark and test runs on it unmodified via
``make_world(transport="shm")``.  Shared memory carries the pages, a
socket carries the frames: the carrier is **tcp's link plus a data
segment**.

* The **control plane** is
  :class:`~repro.transport.exchange.ExchangeTransport`, the exchange
  and link tcp runs, over an ``AF_UNIX`` stream socket in the abstract
  namespace at
  ``"\\0" + name`` (``srpc-<hex>``; no file to leak, gone with the
  process).  The bare name is the transport's published address —
  directory registrations carry it in the ``host`` field with port 0.
  Threads, pool, handshake, at-most-once and liveness are that link's:
  a dead peer is EOF, seen at once by whoever is blocked on it.
* The **data segment** (``<name>.d``), one POSIX shared-memory object
  per started transport, backs the zero-copy path.  Bulk payloads
  (protected-page fills, activity transfers, write-back batches) never
  enter the socket: a body above ``ShmTransport.spill_threshold`` is
  parked once in the sender's segment and a ``SEG_REQUEST`` /
  ``SEG_REPLY`` frame carries only ``(segment, offset, length, extent,
  epoch)`` — the swizzling target of a long pointer becomes a segment
  offset, and the receiver reads the payload in place through a
  ``memoryview``.

A :class:`SegmentAllocator` hands out epoch-stamped *extents*
(``[stamp:u64][len:u32][pad]`` + payload, stamp written last as the
publication barrier).  The receiver validates the segment epoch and
extent stamp before reading and acknowledges with ``SEG_ACK`` when
done, which unpins the extent for reuse.  The two-phase write-back of
DESIGN.md §12 commits *in place*: ``WRITEBACK_PREPARE`` stages a
:class:`SegmentLease` on the staged batch (the bytes stay in the
sender's segment), and ``WRITEBACK_COMMIT`` applies through the staged
view and releases the lease — the commit is the flip of the extent's
stamp word from pinned to retired, not a re-ship of pages.

Three decisions the link leaves to this module:

* **Acks.**  A ``SEG_ACK`` names ``(segment, offset, extent)`` and
  rides the connection its extent arrived on, written whole (under
  that connection's write lock) by whichever thread releases the
  lease: the serving thread once the handler returns, the caller at
  its next exchange, the commit handler or the orphan reaper for a
  retained write-back lease.  It arrives where no reader waits for it
  — ahead of a reply, on a pooled connection, between requests — and
  the link hands every such frame to :meth:`ShmTransport._stray`,
  which unpins.  Best effort: an ack that cannot be written is an
  extent that ages out after :data:`PIN_TTL`.
* **Liveness.**  When the peer ends the *last* connection this side
  has with it — EOF, reset, GOODBYE or garbage — what was shipped to
  it is unpinned (``release_peer``): nobody is left to ack.  While
  another connection with that peer lives, one ending proves nothing
  (the peer evicted it from its pool, or gave it up after a timeout,
  and may be reading a reply extent still), and this side's own
  evictions unpin nothing.  Stamp and epoch validation is what turns
  a reference that outlived its pin into a :class:`TransportError`
  instead of a torn page; a dying transport bumps its segment's epoch
  so every reference still in flight fails it.
* **The spill threshold** is a constant: every frame on the socket is
  smaller than one page.

Every zero-copy mapping records a ``segment-handover`` trace event
(checked offline by rule SRPC330 and replayed by the SRPC4xx
sanitizer).  Segments a crashed process left behind are reaped by
:func:`purge_stale_segments`, keyed on the owner pid in each header.
"""

from __future__ import annotations

import itertools
import os
import socket
import struct
import threading
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.simnet.message import Message, MessageKind
from repro.transport.base import HANDSHAKE_TIMEOUT, TransportError
from repro.transport.exchange import (
    Connection,
    ExchangeEndpoint,
    ExchangeTransport,
)
from repro.transport.framing import (
    PROTOCOL_VERSION,
    STATUS_OK,
    Frame,
    Request,
    SegAck,
    SegReply,
    SegRequest,
    encode_frame,
)

#: Where the kernel exposes POSIX shared memory objects.
SHM_DIR = "/dev/shm"

#: Transport names — socket address and data segment — start with this.
NAME_PREFIX = "srpc-"

#: Data segment capacity (``--segment-size``).
DEFAULT_SEGMENT_SIZE = 16 * 1024 * 1024

#: A pinned extent whose SEG_ACK never arrives is reclaimed after
#: this many seconds (the peer crashed mid-read, or a retained
#: write-back lease was orphaned by an aborted session).
PIN_TTL = 60.0

#: How often a reserver short of room looks for pins past their TTL:
#: crashed readers never ack.
PIN_POLL = 0.05

_DATA_MAGIC = b"SRPCDAT1"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# Data segment header offsets (extents follow at SegmentAllocator.HEADER).
_D_MAGIC, _D_VERSION, _D_EPOCH, _D_PID, _D_SIZE = 0, 8, 16, 24, 32

# Per-extent header: publication stamp, payload length.
_EXTENT_HEADER = 16


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
            if bytes(shm.buf[:8]) != _DATA_MAGIC:
                continue
            if not _pid_alive(_U64.unpack_from(shm.buf, _D_PID)[0]):
                reaped.append(name)
        finally:
            _close_segment(shm, unlink=name in reaped)
    return reaped


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
        conn: Connection,
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
        try:
            self._conn.send(ack)
        except OSError:
            pass

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
                self._lock.wait(min(remaining, PIN_POLL))
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


class _AckedConnection(Connection):
    """A stream connection that leases ack on: a ``SEG_ACK`` is written
    by whichever thread lets its lease go, not only by the one thread
    using the connection, so writes take turns and frames stay whole."""

    __slots__ = ("_writing",)

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock)
        self._writing = threading.Lock()

    def send(self, data: bytes, deadline: Optional[float] = None) -> None:
        with self._writing:
            super().send(data, deadline)


class ShmTransport(ExchangeTransport):
    """Exchanges over ``AF_UNIX``, bulk bodies by segment offset.

    ``peers`` maps site ids to transport names; directory records carry
    the name in their ``host`` field (port 0).  The other keyword
    options are :class:`~repro.transport.exchange.ExchangeTransport`'s.
    """

    endpoint_class = ShmEndpoint

    #: Bodies above this ship as segment extents, so that a frame with
    #: its envelope stays under one page.
    spill_threshold = 3584

    def __init__(
        self,
        site_id: str,
        *,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        **exchange_options,
    ) -> None:
        super().__init__(site_id, **exchange_options)
        self._segment_size = segment_size
        self.name = NAME_PREFIX + os.urandom(6).hex()
        self.handovers = 0
        self._allocator: Optional[SegmentAllocator] = None
        self._attached: Dict[str, Tuple[shared_memory.SharedMemory,
                                        memoryview]] = {}
        self._attach_lock = threading.Lock()
        self._deferred = threading.local()
        self._all_deferred: Set[SegmentLease] = set()
        self._deferred_lock = threading.Lock()
        self._close_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Optional[str]:
        """Create the data segment, start listening; return the address
        (this transport's name) or ``None`` when not listening."""
        if not os.path.isdir(SHM_DIR):  # pragma: no cover - exotic host
            raise TransportError(
                f"shared-memory carrier needs {SHM_DIR} (POSIX shm)"
            )
        if not self._started:  # a second start() fails below, leaking nothing
            self._allocator = SegmentAllocator(
                self.name + ".d", self._segment_size
            )
        return super().start()

    def close(self) -> None:
        """Settle leases, close the link, invalidate the segment epoch,
        unlink the segment.  A close racing another one (a handler
        closing its own transport) returns once the segment is gone."""
        with self._close_lock:
            if not self._started or self._closed.is_set():
                return
            # Zero-copy reply leases still deferred anywhere: their acks
            # go out while the connections are still there to carry them.
            with self._deferred_lock:
                leases = list(self._all_deferred)
            for lease in leases:
                lease.release()
            super().close()
            with self._attach_lock:
                attached = list(self._attached.values())
                self._attached.clear()
            for shm, _mv in attached:
                _close_segment(shm)
            self._allocator.close()

    # -- the link: where to listen, how to connect ----------------------------

    def add_peer(self, site_id: str, address: Union[str, Tuple]) -> None:
        """Teach this transport which name ``site_id`` listens at.

        Accepts a bare name or a directory-shaped ``(host, port)`` pair
        whose host carries the name.
        """
        if isinstance(address, tuple):
            address = address[0]
        self._peers[site_id] = str(address)

    def _address_of(self, host: str, port: int) -> str:
        return host

    def _bind(self) -> Tuple[socket.socket, str]:
        # Abstract namespace: no file to leak, gone with the process.
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind("\0" + self.name)
            listener.listen()
        except OSError:
            listener.close()
            raise
        return listener, self.name

    def _connect(self, address: str) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            sock.connect("\0" + address)
        except OSError:
            sock.close()
            raise
        return sock

    def _adopt(self, sock: socket.socket) -> Connection:
        return _AckedConnection(sock)

    def _stray(self, frame: Frame) -> None:
        if isinstance(frame, SegAck):
            self._allocator.release(
                frame.offset - _EXTENT_HEADER, frame.extent
            )

    def _hung_up(self, conn: Connection) -> None:
        peer = conn.peer
        if peer is None:  # it never shook hands
            return
        with self._lock:
            last = not any(
                other.peer == peer
                for other in self._conns if other is not conn
            )
        if last:
            self._allocator.release_peer(peer)

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
        already, or too big to go inline."""
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

    def _reply_payload(
        self, conn: Connection, dst: str, reply: SegReply
    ) -> memoryview:
        """Map a reply extent; the ack is deferred until this thread's
        next exchange so the caller can consume the view first."""
        view, lease = self._map_extent(
            conn, dst, "reply", reply.segment, reply.offset,
            reply.length, reply.extent, reply.epoch,
        )
        self._defer_release(lease)
        return view

    def _deliver(
        self, conn: Connection, request: SegRequest, kind: MessageKind
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
        conn: Connection,
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
