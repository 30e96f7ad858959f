"""Simnet speaks the fault contract of the real carriers.

A site takes the very :class:`FaultInjector` a tcp or shm transport
takes for its process, and its clauses fire at the same ordinals:
requests and replies the site sends, frames it receives.
"""

import pytest

from repro.simnet.message import MessageKind
from repro.simnet.network import Network, TransportError
from repro.transport.base import FaultInjector
from repro.transport.tcp import TcpTransport
from tests.transport.exchange_contract import opened_stacks


def echo(runs):
    """A CALL handler echoing its payload; ``runs`` collects each run."""
    return lambda message: runs.append(message.payload) or (
        b"echo:" + message.payload
    )


def echo_network(a=None, b=None):
    """Sites A and B, faulted by the specs ``a`` / ``b``; B echoes."""
    network = Network()
    runs = []
    for site_id, spec in (("A", a), ("B", b)):
        faults = FaultInjector.parse(spec) if spec else None
        network.add_site(site_id, faults=faults)
    network.site("B").register_handler(MessageKind.CALL, echo(runs))
    return network, runs


def call(network):
    return network.send(
        "A", "B", MessageKind.CALL, b"hi", MessageKind.REPLY
    )


def test_dropped_request_is_retransmitted():
    network, runs = echo_network(a="drop-request=1")
    assert call(network) == b"echo:hi"
    assert network.retransmissions == 1
    assert runs == [b"hi"]


def test_duplicated_request_executes_once():
    network, runs = echo_network(a="dup-request=1")
    assert call(network) == b"echo:hi"
    assert runs == [b"hi"]
    assert network.retransmissions == 0
    assert network.site("B").reply_cache.retransmission_hits == 1


def test_dropped_reply_served_from_cache():
    network, runs = echo_network(b="drop-reply=1")
    assert call(network) == b"echo:hi"
    assert runs == [b"hi"]
    assert network.retransmissions == 1
    cache = network.site("B").reply_cache
    assert cache.retransmission_hits == 1
    # The finished exchange's reply can no longer be asked for.
    assert len(cache) == 0


def test_loss_drops_replies_too():
    # ``loss=RATE`` on the callee alone: only its replies can be lost.
    network, runs = echo_network(b="loss=0.5,seed=1")
    for _ in range(10):
        assert call(network) == b"echo:hi"
    assert network.retransmissions > 0
    assert len(runs) == 10


@pytest.mark.parametrize(
    "a,b,victim,ran",
    [
        ("crash-send=call:1", None, "A", [b"hi"]),
        (None, "crash-recv=call:1", "B", []),
    ],
)
def test_crash_clause_kills_its_site(a, b, victim, ran):
    network, runs = echo_network(a=a, b=b)
    with pytest.raises(TransportError):
        call(network)
    assert network.is_crashed(victim)
    # A crash-send dies with its frame delivered; a crash-recv before
    # the handler runs.
    assert runs == ran


@pytest.fixture
def tcp_stacks():
    yield from opened_stacks(TcpTransport, [])


@pytest.mark.parametrize("clause", ["drop-request=1", "dup-request=1"])
def test_same_messages_as_tcp(clause, tcp_stacks):
    network, _ = echo_network(a=clause)
    call(network)
    tcp_stacks("B").endpoint.register_handler(MessageKind.CALL, echo([]))
    client = tcp_stacks("A", faults=FaultInjector.parse(clause))
    assert client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    ) == b"echo:hi"
    counts = {MessageKind.CALL: 2, MessageKind.REPLY: 1}
    assert dict(network.stats.messages_by_kind) == counts
    assert dict(client.stats.messages_by_kind) == counts
