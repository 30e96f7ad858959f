"""Tests for the lossy simulated network: retransmission and
at-most-once.

Loss comes from each site's own :class:`FaultInjector` (``loss=RATE``),
so every site, the name server included, draws from its own seed.
"""

import pytest

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.simnet.clock import CostModel
from repro.simnet.message import MessageKind
from repro.simnet.network import Network, TransportError
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.transport.base import FaultInjector
from repro.workloads.traversal import (
    bind_tree_server,
    expected_search_checksum,
    tree_client,
)
from repro.workloads.trees import build_complete_tree, register_tree_types
from repro.xdr.arch import SPARC32
from repro.xdr.registry import TypeRegistry


def lossy_network(rate, seed=7, sites=("A", "B")):
    """A network whose ``sites`` each lose ``rate`` of the frames they
    send, each with a seed of its own."""
    network = Network(cost_model=CostModel(message_latency=1e-4))
    for index, site_id in enumerate(sites):
        faults = FaultInjector(loss_rate=rate, seed=10 * seed + index)
        network.add_site(site_id, faults=faults)
    return network


def smart_pair(network):
    """Tree runtimes at A and B, resolving types through NS.

    The lazy policy makes every first touch an exchange, so a session
    crosses the lossy wire often enough to lose some of it.
    """
    TypeNameServer(network.site("NS"), TypeRegistry())
    runtimes = []
    for site_id in ("A", "B"):
        site = network.site(site_id)
        runtime = SmartRpcRuntime(
            network, site, SPARC32,
            resolver=TypeResolver(site, "NS"), policy="lazy",
        )
        register_tree_types(runtime)
        runtimes.append(runtime)
    return runtimes


class TestRawExchanges:
    def test_bad_loss_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(loss_rate=1.0)
        with pytest.raises(ValueError):
            FaultInjector(loss_rate=-0.1)

    def test_handler_runs_exactly_once_per_logical_send(self):
        network = lossy_network(0.4)
        b = network.site("B")
        executions = []
        b.register_handler(
            MessageKind.CALL,
            lambda m: executions.append(m.payload) or b"ok",
        )
        for index in range(30):
            reply = network.send(
                "A", "B", MessageKind.CALL,
                str(index).encode(), MessageKind.REPLY,
            )
            assert reply == b"ok"
        assert len(executions) == 30  # no duplicate executions
        assert network.retransmissions > 0
        assert len(b.reply_cache) == 0  # every exchange finished

    def test_retransmissions_counted_as_messages(self):
        network = lossy_network(0.4)
        network.site("B").register_handler(MessageKind.CALL, lambda m: b"ok")
        for _ in range(20):
            network.send("A", "B", MessageKind.CALL, b"x",
                         MessageKind.REPLY)
        # 20 exchanges at 40% loss need strictly more than 40 messages.
        assert network.stats.total_messages > 40
        assert network.retransmissions > 0

    def test_timeouts_charge_simulated_time(self):
        lossless = lossy_network(0.0)
        lossy = lossy_network(0.5)
        for network in (lossless, lossy):
            network.site("B").register_handler(
                MessageKind.CALL, lambda m: b""
            )
            for _ in range(20):
                network.send("A", "B", MessageKind.CALL, b"x",
                             MessageKind.REPLY)
        assert lossy.clock.now > lossless.clock.now
        assert (lossless.retransmissions, lossy.retransmissions > 0) == (
            0, True
        )

    def test_pathological_loss_raises_transport_error(self):
        network = lossy_network(0.99, seed=3)
        network.site("B").register_handler(MessageKind.CALL, lambda m: b"")
        with pytest.raises(TransportError):
            for _ in range(200):
                network.send("A", "B", MessageKind.CALL, b"x",
                             MessageKind.REPLY)
        assert network.retransmissions > 0

    def test_deterministic_for_seed(self):
        def run(seed):
            network = lossy_network(0.3, seed=seed)
            network.site("B").register_handler(
                MessageKind.CALL, lambda m: b"ok"
            )
            for _ in range(10):
                network.send("A", "B", MessageKind.CALL, b"x",
                             MessageKind.REPLY)
            assert network.retransmissions > 0
            return network.stats.total_messages, network.clock.now

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestSmartRpcOverLossyTransport:
    def test_remote_search_correct_despite_loss(self):
        network = lossy_network(0.15, seed=11, sites=("NS", "A", "B"))
        caller, callee = smart_pair(network)
        root = build_complete_tree(caller, 63)
        bind_tree_server(callee)
        stub = tree_client(caller, "B")
        with caller.session() as session:
            assert stub.search(session, root, 63) == (
                expected_search_checksum(63, 63)
            )
        assert network.retransmissions > 0
        for site_id in ("NS", "A", "B"):
            assert len(network.site(site_id).reply_cache) == 0

    def test_updates_survive_lossy_write_back(self):
        network = lossy_network(0.15, seed=13, sites=("NS", "A", "B"))
        caller, callee = smart_pair(network)
        root = build_complete_tree(caller, 15)
        bind_tree_server(callee)
        stub = tree_client(caller, "B")
        with caller.session() as session:
            stub.search_update(session, root, 15)
        spec = caller.resolver.resolve("tree_node")
        layout = spec.layout(caller.arch)
        data = caller.space.read_raw(root + layout.offsets["data"], 8)
        assert int.from_bytes(data, "big") == 1
        assert network.retransmissions > 0
