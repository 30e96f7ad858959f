"""Process hosts: one address space per OS process.

``python -m repro.transport serve`` runs one of these.  A *space host*
owns a full smart-RPC address space — runtime, heap, allocation table,
bound workload servers — attached to a real carrier (``--transport``:
a :class:`TcpTransport` or a :class:`ShmTransport`), built by
:func:`make_space` the way :func:`repro.bench.harness.make_world`
builds each of its sites, and registers itself with the site directory
so peers can find it.  A
*registry host* (``--serve-registry``) instead hosts the shared name
services every deployment needs exactly once: the
:class:`~repro.namesvc.directory.SiteDirectory` and the
:class:`~repro.namesvc.server.TypeNameServer`.

The host prints one ``READY site=<id> addr=<host>:<port>`` line to
stdout once it is serving — spawners wait for that line — then blocks
until a signal (SIGINT/SIGTERM) or a ``SHUTDOWN`` control message
arrives.  While blocked it heartbeats the directory so liveness
information stays fresh (registering again if the directory forgot
it), and — when the runtime's policy sets an
``orphan_grace`` — feeds the directory's liveness ages to the orphan
reaper so sessions grounded at (or joined by) a dead peer are
discarded (DESIGN.md §12).  On the way out it deregisters, dumps its
recorded trace (``--trace``) and closes the transport.

Two control exchanges make hosts observable and drivable without
wall-clock sleeps:

* ``STATUS`` is a *readiness barrier*: the request names the condition
  to wait for (``min_heartbeats`` successful directory heartbeats,
  ``min_reaped`` orphaned sessions reaped, a ``max_wait`` bound) and
  the reply reports the host's counters plus its open-session and
  invariant-error counts.  Tests block on it instead of sleeping.
* ``RUN_SESSION`` asks a space host to play *ground*: it runs the
  shared crash-matrix scenario (:func:`run_crash_session`) against the
  named peers and reports completed/aborted.  Combined with crash
  fault injection this drives caller-crash cells from outside the
  dying process.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import (
    PROPOSED,
    SHM,
    TCP,
    install_workloads,
    make_carrier,
    resolve_policy,
)
from repro.namesvc.client import TypeResolver
from repro.namesvc.directory import DirectoryClient, SiteDirectory
from repro.namesvc.server import TypeNameServer
from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector
from repro.simnet.tracefmt import save_trace
from repro.smartrpc.errors import SessionAbortedError
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.smartrpc.validate import session_diagnostics
from repro.transport.base import (
    Endpoint,
    FaultInjector,
    RetryPolicy,
    Transport,
    TransportError,
)
from repro.workloads.traversal import bind_tree_expose, tree_expose_client
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    tree_node_spec,
)
from repro.xdr.arch import SPARC32
from repro.xdr.registry import TypeRegistry
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.view import StructView

#: Default site id of the registry host (directory + type name server).
REGISTRY_SITE = "NS"

#: Seconds between directory heartbeats while a space host is serving.
HEARTBEAT_INTERVAL = 2.0

#: Grace period after a shutdown trigger so in-flight replies (the
#: SHUTDOWN_ACK itself) drain before the transport closes.
_DRAIN_SECONDS = 0.2


def published_address(transport: Transport) -> Tuple[str, int]:
    """The ``(host, port)`` a started stack registers with the directory.

    A tcp stack's address is its bound socket address; a shm stack's is
    its transport's name, published with port 0 so directory records
    and the READY line keep one ``host:port`` shape everywhere.
    """
    address = transport.address
    assert address is not None
    if isinstance(address, tuple):
        return address
    return (address, 0)


# -- control-plane wire formats (STATUS / RUN_SESSION) -----------------------

#: RUN_SESSION reply statuses.
RUN_COMPLETED = 0
RUN_ABORTED = 1
RUN_ERROR = 2

#: The values :func:`run_crash_session` writes into every peer's exposed
#: root node: the first reaches each home on the checksum CALL's
#: piggyback, the second only through the session-end write-back, so
#: survivors holding it prove the commit landed, and survivors still
#: holding the first prove an uncommitted batch rolled back.
CRASH_SCENARIO_MARK = 555
CRASH_SCENARIO_REMARK = 556


def encode_status_request(
    min_heartbeats: int = 0, min_reaped: int = 0, max_wait: float = 0.0
) -> bytes:
    """Payload of one STATUS barrier request."""
    encoder = XdrEncoder()
    encoder.pack_uint32(min_heartbeats)
    encoder.pack_uint32(min_reaped)
    encoder.pack_double(max_wait)
    return encoder.getvalue()


def decode_status_reply(payload: bytes) -> Dict[str, int]:
    """Parse a STATUS reply into its counter mapping."""
    decoder = XdrDecoder(payload)
    status = {
        "heartbeats": decoder.unpack_uint32(),
        "orphans_reaped": decoder.unpack_uint32(),
        "open_sessions": decoder.unpack_uint32(),
        "invariant_errors": decoder.unpack_uint32(),
    }
    decoder.expect_done()
    return status


def query_status(
    endpoint: Endpoint,
    site: str,
    *,
    min_heartbeats: int = 0,
    min_reaped: int = 0,
    max_wait: float = 0.0,
    timeout: Optional[float] = None,
) -> Dict[str, int]:
    """Block until ``site`` reaches the named condition; return counters.

    This is the readiness barrier tests use instead of wall-clock
    sleeps: the *host* blocks the exchange until it has performed
    ``min_heartbeats`` directory heartbeats and reaped ``min_reaped``
    orphaned sessions (or ``max_wait`` elapses), so the caller resumes
    the instant the condition holds.  Keep ``max_wait`` below the
    sender's retry schedule (about 11 s under the default
    :class:`RetryPolicy`) or the exchange gives up first; retransmits
    while the barrier blocks are parked on the in-flight handler, not
    re-run.
    """
    reply = endpoint.send(
        site,
        MessageKind.STATUS,
        encode_status_request(min_heartbeats, min_reaped, max_wait),
        reply_kind=MessageKind.STATUS_REPLY,
        timeout=timeout,
    )
    return decode_status_reply(reply)


def encode_run_session(peers: List[str]) -> bytes:
    """Payload of one RUN_SESSION request (the ground's callee list)."""
    encoder = XdrEncoder()
    encoder.pack_uint32(len(peers))
    for peer in peers:
        encoder.pack_string(peer)
    return encoder.getvalue()


def decode_run_reply(payload: bytes) -> Tuple[int, str]:
    """Parse a RUN_SESSION reply into ``(status, detail)``."""
    decoder = XdrDecoder(payload)
    status = decoder.unpack_uint32()
    detail = decoder.unpack_string()
    decoder.expect_done()
    return status, detail


def run_crash_session(runtime: SmartRpcRuntime, peers: List[str]) -> Dict[str, int]:
    """The shared crash-matrix scenario: one ground session over ``peers``.

    Every step is one column of the crash matrix, in order:

    1. *call* — a ``tree_root`` CALL to each peer;
    2. *fault-fill* — dereferencing each returned pointer faults and
       pulls the node (DATA_REQUEST), then the write dirties it;
    3. *activity-transfer* — a ``tree_checksum`` CALL to each peer,
       carrying the modified-data-set piggyback;
    4. *writeback-prepare* / *writeback-commit* — each root is written
       once more, which no peer has seen, so the two-phase session end
       owes every home one prepare+commit pair.

    The test process and the RUN_SESSION handler both run exactly this
    function, so caller-crash and callee-crash cells exercise the same
    message sequence.  Returns each peer's mid-session checksum
    (diagnostic only — survivors judge the outcome by re-reading their
    own heaps after the session ends or aborts).
    """
    spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
    checksums: Dict[str, int] = {}
    with runtime.session() as session:
        views = {}
        for peer in peers:
            pointer = tree_expose_client(runtime, peer).tree_root(session)
            views[peer] = StructView(
                runtime.mem, pointer, spec, runtime.arch
            )
        for peer in peers:
            views[peer].set(
                "data", CRASH_SCENARIO_MARK.to_bytes(8, "big")
            )
        for peer in peers:
            checksums[peer] = tree_expose_client(
                runtime, peer
            ).tree_checksum(session)
        for peer in peers:
            views[peer].set(
                "data", CRASH_SCENARIO_REMARK.to_bytes(8, "big")
            )
    return checksums


def make_space(
    site_id: str,
    method=PROPOSED,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    registry=None,
    registry_site: str = REGISTRY_SITE,
    stats: Optional[StatsCollector] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
    expose_tree: int = 0,
    session_deadline: float = 0.0,
    exchange_timeout: float = 0.0,
    orphan_grace: float = 0.0,
    transport: str = TCP,
):
    """Build one carrier-attached address space: transport plus runtime.

    The recipe is :func:`~repro.bench.harness.make_world`'s for one
    site: ``method`` (a policy name or a ``TransferPolicy``) goes
    through :func:`~repro.bench.harness.resolve_policy`, the carrier
    through :func:`~repro.bench.harness.make_carrier` (started), the
    runtime through :func:`~repro.bench.harness.install_workloads`, so
    a space host can play caller or callee for any experiment.
    ``registry`` is the directory's ``(host, port)``, or its transport
    name over shm.  Directory registration is the caller's business
    (spawned hosts register, in-process test transports often use
    static peers).
    """
    # Fault-tolerance seconds (DESIGN.md §12); the zero defaults leave
    # the policy exactly as its preset built it.  Built before the
    # carrier, so a bad value leaves no started carrier behind.
    policy = replace(
        resolve_policy(method),
        session_deadline=session_deadline,
        exchange_timeout=exchange_timeout,
        orphan_grace=orphan_grace,
    )
    if transport == SHM and isinstance(registry, tuple):
        registry = registry[0]  # the directory's transport name
    directory_site = registry_site if registry is not None else None
    built = make_carrier(
        transport,
        site_id,
        host=host,
        port=port,
        stats=stats,
        peers={registry_site: registry} if registry is not None else None,
        directory_site=directory_site,
        retry=retry,
        faults=faults,
    )
    runtime = SmartRpcRuntime(
        built,
        built.endpoint,
        SPARC32,
        resolver=TypeResolver(built.endpoint, directory_site),
        policy=policy,
    )
    install_workloads(runtime)
    if expose_tree:
        # This space homes a tree of its own and hands out the root
        # pointer, so remote grounds can dereference, modify and — at
        # session end — write back into this process's heap.
        bind_tree_expose(runtime, build_complete_tree(runtime, expose_tree))
    return built, runtime


class ProcessHost:
    """One serving OS process: an address space or the registry.

    ``transport`` is the started stack to serve on; ``runtime`` is the
    space's runtime, or ``None`` for the registry host, whose directory
    and type name server are already handlers on ``transport``.  A
    space host registers with the directory at ``registry_site`` and
    heartbeats it every ``heartbeat_interval`` seconds; ``trace_path``
    receives the transport's recorded trace on the way out.
    """

    def __init__(
        self,
        transport: Transport,
        runtime: Optional[SmartRpcRuntime] = None,
        *,
        registry_site: str = REGISTRY_SITE,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        trace_path: Optional[str] = None,
    ) -> None:
        self.transport = transport
        self.runtime = runtime
        self.site_id = transport.endpoint.site_id
        self.heartbeat_interval = heartbeat_interval
        self.trace_path = trace_path
        self._stop = threading.Event()
        #: STATUS-barrier counters, guarded by ``_status_cond`` so the
        #: blocking STATUS handler can wait for them to advance.
        self._status_cond = threading.Condition()
        self.heartbeats = 0
        self.orphans_reaped = 0
        self._directory_client: Optional[DirectoryClient] = None
        endpoint = transport.endpoint
        if runtime is not None:
            self._directory_client = DirectoryClient(endpoint, registry_site)
            endpoint.register_handler(
                MessageKind.RUN_SESSION, self._handle_run_session
            )
        endpoint.register_handler(MessageKind.SHUTDOWN, self._handle_shutdown)
        endpoint.register_handler(MessageKind.STATUS, self._handle_status)

    def _handle_shutdown(self, message: Message) -> bytes:
        self._stop.set()
        return b""

    def _handle_status(self, message: Message) -> bytes:
        """The readiness barrier: block until the counters reach the ask.

        Runs on a transport worker thread, so blocking here never
        stalls the serve loop (whose heartbeats advance the counters)
        or other exchanges; retransmissions of this request park on
        the in-flight handler instead of re-entering it.
        """
        decoder = XdrDecoder(message.payload)
        min_heartbeats = decoder.unpack_uint32()
        min_reaped = decoder.unpack_uint32()
        max_wait = decoder.unpack_double()
        decoder.expect_done()
        deadline = time.monotonic() + max_wait
        with self._status_cond:
            while (
                self.heartbeats < min_heartbeats
                or self.orphans_reaped < min_reaped
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._status_cond.wait(remaining):
                    break
            heartbeats = self.heartbeats
            reaped = self.orphans_reaped
        open_sessions = 0
        invariant_errors = 0
        if self.runtime is not None:
            for state in list(self.runtime._sessions.values()):
                open_sessions += 1
                invariant_errors += sum(
                    1
                    for diagnostic in session_diagnostics(
                        self.runtime, state
                    )
                    if diagnostic.is_error
                )
        encoder = XdrEncoder()
        encoder.pack_uint32(heartbeats)
        encoder.pack_uint32(reaped)
        encoder.pack_uint32(open_sessions)
        encoder.pack_uint32(invariant_errors)
        return encoder.getvalue()

    def _handle_run_session(self, message: Message) -> bytes:
        """Play ground: run the crash-matrix scenario against peers."""
        decoder = XdrDecoder(message.payload)
        count = decoder.unpack_uint32()
        peers = [decoder.unpack_string() for _ in range(count)]
        decoder.expect_done()
        assert self.runtime is not None
        encoder = XdrEncoder()
        try:
            checksums = run_crash_session(self.runtime, peers)
            encoder.pack_uint32(RUN_COMPLETED)
            encoder.pack_string(
                ",".join(
                    f"{peer}={total}"
                    for peer, total in sorted(checksums.items())
                )
            )
        except SessionAbortedError as exc:
            encoder.pack_uint32(RUN_ABORTED)
            encoder.pack_string(exc.reason or str(exc))
        except Exception as exc:  # a broken scenario must still reply
            encoder.pack_uint32(RUN_ERROR)
            encoder.pack_string(f"{type(exc).__name__}: {exc}")
        return encoder.getvalue()

    def request_stop(self) -> None:
        """Ask the serve loop to exit (signal handlers land here)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Register, announce readiness, heartbeat until told to stop."""
        bound_host, bound_port = published_address(self.transport)
        if self._directory_client is not None:
            self._directory_client.register(bound_host, bound_port)
        print(
            f"READY site={self.site_id} addr={bound_host}:{bound_port}",
            flush=True,
        )
        try:
            while not self._stop.wait(self.heartbeat_interval):
                if self._directory_client is None:
                    continue
                reaped = 0
                try:
                    if not self._directory_client.heartbeat():
                        # The directory forgot this site (a registry
                        # restart): without a record, new peers cannot
                        # look it up and reapers count it dead.
                        self._directory_client.register(
                            bound_host, bound_port
                        )
                    runtime = self.runtime
                    if runtime is not None and runtime.policy.orphan_grace > 0:
                        # The directory's liveness ages are the failure
                        # detector: a peer past the grace (or missing
                        # entirely) is dead, and every session it took
                        # part in is reaped.
                        ages = self._directory_client.liveness_ages()
                        reaped = len(runtime.reap_orphans(ages))
                except TransportError:
                    # A dead registry should not kill a serving
                    # space; peers holding our address still work.
                    continue
                with self._status_cond:
                    self.heartbeats += 1
                    self.orphans_reaped += reaped
                    self._status_cond.notify_all()
        finally:
            time.sleep(_DRAIN_SECONDS)
            self.close()

    def close(self) -> None:
        """Deregister, dump the trace, release the transport."""
        if self._directory_client is not None:
            try:
                self._directory_client.deregister()
            except TransportError:
                pass
            self._directory_client = None
        if self.trace_path is not None:
            save_trace(self.transport.stats, self.trace_path)
            self.trace_path = None
        self.transport.close()


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI argument."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {text!r} (expected HOST:PORT)")
    return host, int(port)


def _registry_argument(args):
    """The --registry value: ``(host, port)`` on tcp, a bare transport
    name on shm (a ``name:0`` form is accepted too)."""
    if args.registry is None:
        return None
    if args.transport == SHM:
        name, _, port = args.registry.rpartition(":")
        return name if name and port.isdigit() else args.registry
    return parse_address(args.registry)


def _control_transport(args, role: str) -> Transport:
    """A non-listening transport for ping/status/shutdown commands."""
    return make_carrier(
        args.transport,
        f"_{role}-{os.getpid()}",
        listen=False,
        peers={args.registry_site: _registry_argument(args)},
        directory_site=args.registry_site,
    )


def run_serve(args) -> int:
    """Entry point for ``python -m repro.transport serve``: build the
    stack, then serve it until told to stop."""
    registry = _registry_argument(args)
    faults = (
        FaultInjector.parse(args.fault) if args.fault is not None else None
    )
    stats = StatsCollector(trace=args.trace is not None)
    runtime = None
    if args.serve_registry:
        transport = make_carrier(
            args.transport,
            args.site,
            host=args.host,
            port=args.port,
            stats=stats,
        )
        SiteDirectory(transport.endpoint)
        # Publish the standard workload types so spaces may resolve
        # them over the wire instead of registering locally.
        TypeNameServer(transport.endpoint, TypeRegistry()).publish(
            TREE_NODE_TYPE_ID, tree_node_spec()
        )
    elif registry is None:
        raise TransportError(
            "a space host needs --registry (HOST:PORT, or the "
            "registry's name under --transport shm) to find peers"
        )
    else:
        transport, runtime = make_space(
            args.site,
            args.method,
            host=args.host,
            port=args.port,
            registry=registry,
            registry_site=args.registry_site,
            stats=stats,
            faults=faults,
            expose_tree=args.expose_tree,
            session_deadline=args.session_deadline,
            exchange_timeout=args.exchange_timeout,
            orphan_grace=args.orphan_grace,
            transport=args.transport,
        )
    host = ProcessHost(
        transport,
        runtime,
        registry_site=args.registry_site,
        heartbeat_interval=args.heartbeat,
        trace_path=args.trace,
    )
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: host.request_stop())
    host.serve_forever()
    return 0


def run_ping(args) -> int:
    """Entry point for ``python -m repro.transport ping``."""
    transport = _control_transport(args, "ping")
    try:
        rtt = transport.ping(args.site, timeout=args.timeout)
        print(f"{args.site}: {rtt * 1000:.3f} ms")
        return 0
    except TransportError as exc:
        print(f"ping failed: {exc}", file=sys.stderr)
        return 1
    finally:
        transport.close()


def run_status(args) -> int:
    """Entry point for ``python -m repro.transport status``."""
    transport = _control_transport(args, "status")
    try:
        status = query_status(
            transport.endpoint,
            args.site,
            min_heartbeats=args.min_heartbeats,
            min_reaped=args.min_reaped,
            max_wait=args.max_wait,
        )
        print(
            f"{args.site}: heartbeats={status['heartbeats']} "
            f"reaped={status['orphans_reaped']} "
            f"open-sessions={status['open_sessions']} "
            f"invariant-errors={status['invariant_errors']}"
        )
        return 0
    except TransportError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    finally:
        transport.close()


def run_shutdown(args) -> int:
    """Entry point for ``python -m repro.transport shutdown``."""
    transport = _control_transport(args, "control")
    try:
        transport.endpoint.send(
            args.site,
            MessageKind.SHUTDOWN,
            b"",
            reply_kind=MessageKind.SHUTDOWN_ACK,
        )
        print(f"{args.site}: shutting down")
        return 0
    except TransportError as exc:
        print(f"shutdown failed: {exc}", file=sys.stderr)
        return 1
    finally:
        transport.close()
