"""World construction and single-run experiment drivers.

A *world* is one deployment: a transport, a type name server, a caller
site "A" holding the data, and a callee site "B" running the remote
procedures — the paper's two-SPARCstation setup.  Each measurement
builds a fresh world so runs are independent and deterministic.

Worlds come in three transports (``transport=`` of :func:`make_world`):

* ``simnet`` — the deterministic in-process simulator; ``seconds``
  are modeled time under the calibrated cost model (the paper's
  figures);
* ``tcp`` — three :class:`~repro.transport.tcp.TcpTransport` stacks
  exchanging framed messages over real localhost sockets; ``seconds``
  are genuine wall time.  Message/byte/fault counters are identical
  to simnet's, which the equivalence property test pins down.
* ``shm`` — three :class:`~repro.transport.shm.ShmTransport` stacks
  exchanging the same frames over abstract ``AF_UNIX`` sockets;
  ``seconds`` are wall time, counters again identical.

TCP and shm worlds own OS resources (sockets, threads); use them as
context managers or call :meth:`World.close`.

A world's sites are built from three pieces the process host
(:func:`repro.transport.host.make_space`) builds its one site from:
:func:`resolve_policy`, :func:`make_carrier` and
:func:`install_workloads`.  The host imports them from here, so this
module must not import the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.rpc.runtime import RpcRuntime
from repro.simnet.clock import CostModel, Stopwatch
from repro.simnet.network import Network
from repro.simnet.stats import StatsCollector
from repro.smartrpc.hints import ClosureHints
from repro.smartrpc.policy import (
    POLICY_NAMES,
    TransferPolicy,
    make_policy,
)
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.transport.base import (
    Endpoint,
    FaultInjector,
    RetryPolicy,
    Transport,
    TransportError,
)
from repro.transport.shm import ShmTransport
from repro.transport.tcp import TcpTransport
from repro.workloads.hashtable import (
    HASH_NODE_TYPE_ID,
    HASH_TABLE_TYPE_ID,
    bind_hash_server,
    build_hash_table,
    hash_client,
    register_hash_types,
)
from repro.workloads.linked_list import (
    bind_list_server,
    build_list,
    list_client,
    register_list_types,
)
from repro.workloads.traversal import (
    TREE_EXPOSE,
    TREE_OPS,
    bind_tree_server,
    tree_client,
    visit_counts,
)
from repro.workloads.trees import build_complete_tree, register_tree_types
from repro.xdr.arch import SPARC32, Architecture
from repro.xdr.registry import TypeRegistry

from repro.bench.calibration import PAPER_COST_MODEL

#: The paper's three systems, as transfer-policy names.  ``proposed``
#: is an alias for the ``paper`` policy, which the benchmark sweeps
#: (closure size etc.) vary through :func:`resolve_policy`; the fully
#: eager method is the ``graphcopy`` policy and the fully lazy one the
#: ``lazy`` policy, so every baseline runs through the one smart runtime.
PROPOSED = "proposed"
FULLY_EAGER = "graphcopy"
FULLY_LAZY = "lazy"
METHODS = (FULLY_EAGER, FULLY_LAZY, PROPOSED)

#: Everything ``make_world`` (and the ``--policy`` CLI flag) accepts.
POLICIES = tuple(sorted(set(POLICY_NAMES) | {PROPOSED}))


def standard_workload_hints() -> ClosureHints:
    """The benchmark workloads' programmer hints (paper §6).

    Hash retrieval follows only the bucket chain and never fans out of
    the table header; tree and list types are unhinted (every pointer
    field is followed).  This is what the ``hinted`` policy preset uses
    unless the caller supplies its own hints.
    """
    hints = ClosureHints()
    hints.follow(HASH_TABLE_TYPE_ID, [])
    hints.follow(HASH_NODE_TYPE_ID, ["next"])
    return hints


def resolve_policy(method, **fields) -> TransferPolicy:
    """Resolve a benchmark method plus policy fields into a policy.

    ``fields`` go to :func:`~repro.smartrpc.policy.make_policy`
    unchanged, so a field the preset pins raises there.  This adds
    only what smartrpc cannot know: ``proposed`` is the ``paper``
    policy, and ``hinted`` gets :func:`standard_workload_hints` unless
    ``closure_hints`` is given.  A policy value passes through
    unchanged.
    """
    if isinstance(method, TransferPolicy):
        return method
    name = "paper" if method == PROPOSED else method
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown method {method!r}")
    if name == "hinted" and fields.get("closure_hints") is None:
        fields["closure_hints"] = standard_workload_hints()
    return make_policy(name, **fields)


CALLER = "A"
CALLEE = "B"
NAME_SERVER = "NS"

SIMNET = "simnet"
TCP = "tcp"
SHM = "shm"
#: The real carriers: ``tcp`` listens on a TCP socket; ``shm``
#: (same-machine deployments) on an abstract ``AF_UNIX`` socket, and
#: its address is the transport's name.
CARRIERS = (TCP, SHM)
TRANSPORTS = (SIMNET,) + CARRIERS

#: Neither carrier loses anything on one host, so a patient retry
#: schedule keeps large transfers from timing out into retransmissions
#: that would double-count the message and byte counters under
#: measurement.
PATIENT_RETRY = RetryPolicy(
    timeout=5.0, backoff=2.0, max_timeout=30.0, max_attempts=4
)


def make_carrier(
    transport: str,
    site_id: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    stats: Optional[StatsCollector] = None,
    cost_model: Optional[CostModel] = None,
    peers: Optional[dict] = None,
    directory_site: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultInjector] = None,
    listen: bool = True,
) -> Transport:
    """Build and start one real carrier stack for ``site_id``.

    ``host`` and ``port`` are tcp's listening address; the rest are
    :class:`~repro.transport.exchange.ExchangeTransport`'s.
    """
    if transport == TCP:
        carrier, extras = TcpTransport, {"host": host, "port": port}
    elif transport == SHM:
        carrier, extras = ShmTransport, {}
    else:
        raise TransportError(
            f"unknown transport {transport!r} (expected one of "
            f"{', '.join(CARRIERS)})"
        )
    built = carrier(
        site_id,
        stats=stats,
        cost_model=cost_model,
        peers=peers,
        directory_site=directory_site,
        retry=retry,
        faults=faults,
        listen=listen,
        **extras,
    )
    built.start()
    return built


def install_workloads(runtime: RpcRuntime) -> None:
    """Make ``runtime`` a site of every standard workload.

    The tree, hash and list types are registered, the tree interfaces
    imported and the three workload servers bound, so the site can
    play caller or callee for any experiment.  Serving a tree of its
    own (``TREE_EXPOSE``) is the deployment's choice, not done here.
    """
    register_tree_types(runtime)
    register_hash_types(runtime)
    register_list_types(runtime)
    runtime.import_interface(TREE_OPS)
    runtime.import_interface(TREE_EXPOSE)
    bind_tree_server(runtime)
    bind_hash_server(runtime)
    bind_list_server(runtime)


@dataclass
class World:
    """One two-site deployment (simulated, tcp or shm)."""

    network: Transport
    caller: RpcRuntime
    callee: RpcRuntime
    method: str
    transport: str = SIMNET
    transports: List[Transport] = field(default_factory=list)

    @property
    def stats(self) -> StatsCollector:
        """The shared statistics collector."""
        return self.network.stats

    def close(self) -> None:
        """Release transport resources (no-op for simnet worlds)."""
        for transport in self.transports:
            transport.close()
        self.transports = []

    def __enter__(self) -> "World":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _make_runtime(
    policy: TransferPolicy,
    network: Transport,
    site: Endpoint,
    arch: Architecture,
) -> RpcRuntime:
    resolver = TypeResolver(site, NAME_SERVER)
    return SmartRpcRuntime(
        network, site, arch, resolver=resolver, policy=policy
    )


def make_world(
    method: str = PROPOSED,
    *,
    caller_arch: Architecture = SPARC32,
    callee_arch: Architecture = SPARC32,
    cost_model: Optional[CostModel] = None,
    transport: str = SIMNET,
    trace: bool = False,
) -> World:
    """Build a fresh deployment running ``method`` over ``transport``.

    ``method`` is any transfer-policy name (``proposed``, ``lazy``,
    ``eager``, ``graphcopy``, ``paper``, ``hinted``, ``adaptive``,
    ``pipelined``) or a
    :class:`~repro.smartrpc.policy.TransferPolicy` value, which both
    runtimes share (it is frozen).  A sweep passes
    ``resolve_policy(PROPOSED, closure_size=...)``.

    Both sites default to the paper's SPARC architecture so node sizes
    (16 bytes) and therefore transfer volumes match the original.
    """
    policy = resolve_policy(method)
    model = cost_model if cost_model is not None else PAPER_COST_MODEL
    stats = StatsCollector(trace=trace)
    if transport == SIMNET:
        network: Transport = Network(cost_model=model, stats=stats)
        ns_site = network.add_site(NAME_SERVER)
        caller_site = network.add_site(CALLER)
        callee_site = network.add_site(CALLEE)
        transports: List[Transport] = []
        caller_net = callee_net = network
    elif transport in CARRIERS:
        # Three real stacks on this host sharing one stats collector
        # and one peer table (site id -> (host, port) or transport
        # name, filled in as each listener comes up).
        peers: dict = {}
        transports = []
        for site_id in (NAME_SERVER, CALLER, CALLEE):
            stack = make_carrier(
                transport,
                site_id,
                stats=stats,
                cost_model=model,
                peers=peers,
                retry=PATIENT_RETRY,
            )
            transports.append(stack)
            peers[site_id] = stack.address
        ns_net, caller_net, callee_net = transports
        network = caller_net
        ns_site = ns_net.endpoint
        caller_site = caller_net.endpoint
        callee_site = callee_net.endpoint
    else:
        raise ValueError(f"unknown transport {transport!r}")
    TypeNameServer(ns_site, TypeRegistry())
    caller = _make_runtime(policy, caller_net, caller_site, caller_arch)
    callee = _make_runtime(policy, callee_net, callee_site, callee_arch)
    install_workloads(caller)
    install_workloads(callee)
    label = method if isinstance(method, str) else policy.name
    return World(network, caller, callee, label, transport, transports)


@dataclass
class ExperimentRun:
    """Measurements of one remote procedure call."""

    method: str
    seconds: float
    callbacks: int
    messages: int
    bytes_moved: int
    page_faults: int
    write_faults: int
    entries: int
    result: int
    # Shipped-vs-touched accounting of the fill path (closure bytes
    # sent vs actually accessed; the prefetch pair excludes demanded
    # roots) — the adaptive policy's feedback signal.
    closure_shipped: int = 0
    closure_touched: int = 0
    prefetch_shipped: int = 0
    prefetch_touched: int = 0
    # Fetch-pipeline wins (zero unless the policy enables the
    # pipeline): demand round trips that never happened, and faults
    # absorbed by an already-in-flight exchange.
    round_trips_saved: int = 0
    piggyback_hits: int = 0

    def row(self) -> tuple:
        """Compact tuple for table rendering."""
        return (
            self.method,
            round(self.seconds, 4),
            self.callbacks,
            self.messages,
            self.bytes_moved,
        )

    def ledger(self) -> dict:
        """The shipped-vs-touched counters, for JSON reporting."""
        return {
            "closure_bytes_shipped": self.closure_shipped,
            "closure_bytes_touched": self.closure_touched,
            "prefetch_bytes_shipped": self.prefetch_shipped,
            "prefetch_bytes_touched": self.prefetch_touched,
            "round_trips_saved": self.round_trips_saved,
            "piggyback_hits": self.piggyback_hits,
        }


def run_tree_call(
    world: World,
    num_nodes: int,
    procedure: str,
    ratio: Optional[float] = None,
    repeats: int = 0,
    seed: int = 0,
) -> ExperimentRun:
    """Build a tree on the caller and measure one remote call on it.

    ``procedure`` is ``search`` / ``search_update`` (with ``ratio``) or
    ``path_search`` (with ``repeats`` and ``seed``).  Only the call
    itself is timed — tree construction and session teardown are not
    part of the paper's "time required to process one remote procedure
    call" — but the measured call does include the coherency piggyback
    work its updates cause, as the original's did.
    """
    root = build_complete_tree(world.caller, num_nodes)
    stub = tree_client(world.caller, CALLEE)
    world.stats.reset()
    clock = world.network.clock
    with world.caller.session() as session:
        watch = Stopwatch(clock)
        if procedure == "search":
            assert ratio is not None
            target = visit_counts(ratio, num_nodes)["target_nodes"]
            result = stub.search(session, root, target)
        elif procedure == "search_update":
            assert ratio is not None
            target = visit_counts(ratio, num_nodes)["target_nodes"]
            result = stub.search_update(session, root, target)
        elif procedure == "search_repeat":
            result = stub.search_repeat(session, root, num_nodes, repeats)
        elif procedure == "path_search":
            result = stub.path_search(session, root, repeats, seed)
        else:
            raise ValueError(f"unknown tree procedure {procedure!r}")
        seconds = watch.elapsed
    return _finish_run(world, seconds, result)


def run_hash_call(
    world: World,
    num_keys: int,
    lookups: int,
    first_key: int = 17,
) -> ExperimentRun:
    """Build a hash table on the caller and measure remote lookups.

    The sparse-retrieval workload of the §6 hints discussion (and the
    adaptive policy's target): ``lookups`` chained key lookups touch a
    handful of bucket chains while an unhinted eager closure prefetches
    whole neighbourhoods of the table.
    """
    table, _ = build_hash_table(world.caller, list(range(num_keys)))
    stub = hash_client(world.caller, CALLEE)
    world.stats.reset()
    clock = world.network.clock
    with world.caller.session() as session:
        watch = Stopwatch(clock)
        result = stub.lookup_many(session, table, first_key, lookups)
        seconds = watch.elapsed
    return _finish_run(world, seconds, result)


def run_list_call(
    world: World,
    num_nodes: int,
    procedure: str = "total",
    factor: int = 3,
) -> ExperimentRun:
    """Build a linked list on the caller and measure one remote call.

    The pointer-chasing workload with no fan-out: each fill discovers
    exactly one frontier pointer, so round trips scale linearly with
    list length divided by closure budget — the fetch pipeline's
    prefetch mechanism is what collapses them.
    """
    head = build_list(world.caller, list(range(num_nodes)))
    stub = list_client(world.caller, CALLEE)
    world.stats.reset()
    clock = world.network.clock
    with world.caller.session() as session:
        watch = Stopwatch(clock)
        if procedure == "total":
            result = stub.total(session, head)
        elif procedure == "scale":
            result = stub.scale(session, head, factor)
        else:
            raise ValueError(f"unknown list procedure {procedure!r}")
        seconds = watch.elapsed
    return _finish_run(world, seconds, result)


def _finish_run(world: World, seconds: float, result: int) -> ExperimentRun:
    stats = world.stats
    ledger = stats.transfer_ledger
    return ExperimentRun(
        method=world.method,
        seconds=seconds,
        callbacks=stats.callbacks,
        messages=stats.total_messages,
        bytes_moved=stats.total_bytes,
        page_faults=stats.page_faults,
        write_faults=stats.write_faults,
        entries=stats.entries_transferred,
        result=result,
        closure_shipped=ledger.closure_bytes_shipped,
        closure_touched=ledger.closure_bytes_touched,
        prefetch_shipped=ledger.prefetch_bytes_shipped,
        prefetch_touched=ledger.prefetch_bytes_touched,
        round_trips_saved=ledger.round_trips_saved,
        piggyback_hits=ledger.piggyback_hits,
    )
