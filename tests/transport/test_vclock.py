"""Tests for vector clocks (the causal-stamp layer)."""

import sys
import threading

from repro.transport.vclock import (
    VectorClock,
    concurrent,
    dominates,
    happens_before,
)

# A clock mapping in wire form the slow and obvious way, as the
# carriers did it before ``tick_wire``.
from tests.transport.frame_ladder import clock_to_wire


class TestVectorClock:
    def test_tick_increments_own_component(self):
        clock = VectorClock("A")
        assert clock.tick() == {"A": 1}
        assert clock.tick() == {"A": 2}

    def test_tick_returns_snapshot_not_alias(self):
        clock = VectorClock("A")
        first = clock.tick()
        clock.tick()
        assert first == {"A": 1}

    def test_merge_takes_pointwise_max(self):
        clock = VectorClock("A")
        clock.tick()
        clock.merge_wire((("A", 0), ("B", 5)))
        assert clock.entries == {"A": 1, "B": 5}
        clock.merge_wire((("B", 3), ("C", 1)))
        assert clock.entries == {"A": 1, "B": 5, "C": 1}

    def test_merged_history_travels_through_ticks(self):
        clock = VectorClock("A")
        clock.merge_wire((("B", 2),))
        assert clock.tick() == {"A": 1, "B": 2}

    def test_next_seq_is_monotonic_per_session(self):
        clock = VectorClock("A")
        assert [clock.next_seq("s1") for _ in range(3)] == [0, 1, 2]
        assert clock.next_seq("s2") == 0
        assert clock.next_seq(None) == 0
        assert clock.next_seq("s1") == 3


class TestWireForm:
    """``tick_wire`` / ``merge_wire``: the carriers' per-exchange path."""

    def test_tick_wire_is_tick_in_wire_form(self):
        clock, twin = VectorClock("M"), VectorClock("M")
        for _ in range(3):
            assert clock.tick_wire() == clock_to_wire(twin.tick())
            assert clock.tick_wire() == clock_to_wire(clock.entries)
            twin.tick()
        assert clock.tick_wire() == (("M", 7),)

    def test_site_order_follows_merges(self):
        clock = VectorClock("M")
        assert clock.tick_wire() == (("M", 1),)
        clock.merge_wire((("Z", 4),))
        assert clock.tick_wire() == (("M", 2), ("Z", 4))
        # A site that sorts before every known one, right before a tick.
        clock.merge_wire((("A", 9), ("Q", 1)))
        wire = clock.tick_wire()
        assert wire == (("A", 9), ("M", 3), ("Q", 1), ("Z", 4))
        assert wire == clock_to_wire(clock.entries)
        clock.merge_wire((("B", 1),))
        assert clock.tick_wire() == clock_to_wire(clock.entries)
        # Non-ASCII ids sort by code point, as ``sorted`` on the dict did.
        clock.merge_wire((("β", 2), ("a", 1)))
        assert clock.tick_wire() == clock_to_wire(clock.entries)

    def test_merge_wire_is_merge_of_the_mapping(self):
        received = [
            (),
            (("A", 3), ("B", 5)),
            (("A", 1), ("B", 9), ("C", 2)),
            (("A", 2**63), ("M", 0)),
            (("M", 1),),
        ]
        clock, expected = VectorClock("M"), {}
        for pairs in received:
            clock.merge_wire(pairs)
            for site, count in pairs:  # the pointwise maximum
                if count > expected.get(site, 0):
                    expected[site] = count
            assert clock.entries == expected
            expected["M"] = expected.get("M", 0) + 1
            assert clock.tick_wire() == clock_to_wire(expected)

    def test_concurrent_ticks_lose_no_count(self):
        clock, rounds, seen = VectorClock("M"), 2000, []

        def worker(ident: int) -> None:
            mine = []
            for count in range(rounds):
                if count % 2:
                    mine.append(dict(clock.tick_wire())["M"])
                else:
                    mine.append(clock.tick()["M"])
                if count % 100 == 0:
                    clock.merge_wire(((f"peer-{ident}-{count}", 1),))
            seen.append(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [
                threading.Thread(target=worker, args=(ident,))
                for ident in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        # Every tick was handed to exactly one caller, in order.
        assert all(mine == sorted(mine) for mine in seen)
        assert sorted(sum(seen, [])) == list(range(1, 4 * rounds + 1))
        wire = clock.tick_wire()
        assert wire == clock_to_wire(clock.entries)
        assert dict(wire)["M"] == 4 * rounds + 1
        assert len(wire) == 1 + 4 * (rounds // 100)


class TestCausalOrder:
    def test_dominates(self):
        assert dominates({"A": 2, "B": 1}, {"A": 1})
        assert not dominates({"A": 1}, {"A": 2})
        assert dominates({"A": 1}, {"A": 1})

    def test_happens_before_requires_strict_order(self):
        a = {"A": 1}
        b = {"A": 2, "B": 1}
        assert happens_before(a, b)
        assert not happens_before(b, a)
        assert not happens_before(a, dict(a))

    def test_concurrent_is_symmetric_and_irreflexive(self):
        a = {"A": 2}
        b = {"B": 3}
        assert concurrent(a, b)
        assert concurrent(b, a)
        assert not concurrent(a, dict(a))

    def test_ordered_clocks_are_not_concurrent(self):
        a = {"A": 1, "B": 1}
        b = {"A": 2, "B": 1}
        assert not concurrent(a, b)
        assert happens_before(a, b)


class TestEndToEndStamping:
    """The carriers piggyback clocks so causality crosses sites."""

    def test_simnet_exchange_merges_clocks(self):
        from repro.simnet.message import MessageKind
        from repro.simnet.network import Network

        network = Network()
        a = network.add_site("A")
        b = network.add_site("B")
        b.register_handler(MessageKind.CALL, lambda m: b"")
        a.vclock.tick()
        network.send("A", "B", MessageKind.CALL, b"x", MessageKind.REPLY)
        # The callee observed the caller's clock, and the reply
        # carried the callee's history back.
        assert b.vclock.entries.get("A", 0) >= 1
        assert a.vclock.entries.get("B", 0) >= 0

    def test_stamp_carries_site_seq_and_clock(self):
        from repro.simnet.network import Network

        network = Network()
        a = network.add_site("A")
        stamp = a.stamp("session-1")
        assert stamp["site"] == "A"
        assert stamp["seq"] == 0
        assert stamp["vc"]["A"] >= 1
        assert a.stamp("session-1")["seq"] == 1
