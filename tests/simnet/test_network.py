"""Tests for the simulated network and sites."""

import pytest

from repro.simnet.clock import CostModel
from repro.simnet.message import MessageKind
from repro.simnet.network import Network, NetworkError


@pytest.fixture
def network():
    return Network(cost_model=CostModel(message_latency=1e-3,
                                        byte_wire=1e-6))


def echo_handler(message):
    return message.payload


class TestSiteRegistration:
    def test_add_and_lookup(self, network):
        site = network.add_site("A")
        assert network.site("A") is site
        assert site.site_id == "A"

    def test_duplicate_site_rejected(self, network):
        network.add_site("A")
        with pytest.raises(NetworkError):
            network.add_site("A")

    def test_unknown_site_rejected(self, network):
        with pytest.raises(NetworkError):
            network.site("nope")


class TestSend:
    def test_round_trip_payload(self, network):
        network.add_site("A")
        b = network.add_site("B")
        b.register_handler(MessageKind.CALL, echo_handler)
        reply = network.send(
            "A", "B", MessageKind.CALL, b"hello", MessageKind.REPLY
        )
        assert reply == b"hello"

    def test_send_from_unknown_source_rejected(self, network):
        network.add_site("B")
        with pytest.raises(NetworkError):
            network.send("ghost", "B", MessageKind.CALL, b"", None)

    def test_no_handler_raises(self, network):
        network.add_site("A")
        network.add_site("B")
        with pytest.raises(NetworkError):
            network.send("A", "B", MessageKind.CALL, b"x", MessageKind.REPLY)

    def test_one_way_message_must_not_reply(self, network):
        network.add_site("A")
        b = network.add_site("B")
        b.register_handler(MessageKind.INVALIDATE, echo_handler)
        with pytest.raises(NetworkError):
            network.send("A", "B", MessageKind.INVALIDATE, b"data", None)

    def test_one_way_message_ok_with_empty_reply(self, network):
        network.add_site("A")
        b = network.add_site("B")
        b.register_handler(MessageKind.INVALIDATE, lambda m: b"")
        out = network.send("A", "B", MessageKind.INVALIDATE, b"data", None)
        assert out == b""

    def test_clock_charged_per_message(self, network):
        network.add_site("A")
        b = network.add_site("B")
        b.register_handler(MessageKind.CALL, lambda m: b"")
        before = network.clock.now
        network.send("A", "B", MessageKind.CALL, b"x" * 1000,
                     MessageKind.REPLY)
        elapsed = network.clock.now - before
        # request: 1ms + 1000us; reply: 1ms + 0 -> 3.0 ms total
        assert elapsed == pytest.approx(3.0e-3)

    def test_stats_count_messages_and_bytes(self, network):
        network.add_site("A")
        b = network.add_site("B")
        b.register_handler(MessageKind.CALL, lambda m: b"yz")
        network.send("A", "B", MessageKind.CALL, b"abcd", MessageKind.REPLY)
        assert network.stats.total_messages == 2
        assert network.stats.total_bytes == 6
        assert network.stats.messages_by_kind[MessageKind.CALL] == 1
        assert network.stats.messages_by_kind[MessageKind.REPLY] == 1


class TestNestedDelivery:
    def test_handler_can_send_nested_messages(self, network):
        """B's handler calls C before replying (nested synchronous RPC)."""
        network.add_site("A")
        b = network.add_site("B")
        c = network.add_site("C")
        c.register_handler(MessageKind.CALL, lambda m: b"from-c")

        def relay(message):
            inner = b.send(
                "C", MessageKind.CALL, b"fwd", MessageKind.REPLY
            )
            return b"b-saw-" + inner

        b.register_handler(MessageKind.CALL, relay)
        reply = network.send("A", "B", MessageKind.CALL, b"go",
                             MessageKind.REPLY)
        assert reply == b"b-saw-from-c"
        assert network.stats.total_messages == 4
