"""Reply-cache duplicate suppression: LRU on access, not insertion.

The regression here is the satellite fix: an exchange id that keeps
being retransmitted (hot) must not be evicted before ids that were
merely inserted earlier but never touched again (cold).  Under
insertion-order eviction a long-running retransmitting exchange lost
its cached reply — and with it the at-most-once guarantee.
"""

from repro.simnet.message import Message, MessageKind
from repro.simnet.network import Network
from repro.transport.base import ReplyCache


def test_hit_refreshes_recency_hot_entry_survives():
    cache = ReplyCache(limit=3)
    cache.put("hot", b"hot-reply")
    cache.put("cold-1", b"c1")
    cache.put("cold-2", b"c2")
    # The hot exchange retransmits: a hit must refresh its recency.
    assert cache.get("hot") == b"hot-reply"
    # Two more exchanges overflow the cache.  Insertion-order eviction
    # would now drop "hot" (the oldest insert); LRU must drop the
    # cold entries instead.
    cache.put("cold-3", b"c3")
    cache.put("cold-4", b"c4")
    assert cache.get("hot") == b"hot-reply"
    assert "cold-1" not in cache
    assert "cold-2" not in cache


def test_misses_do_not_count_as_hits():
    cache = ReplyCache(limit=2)
    assert cache.get("absent") is None
    cache.put("k", b"v")
    assert cache.get("k") == b"v"
    assert cache.retransmission_hits == 1


def test_put_evicts_least_recently_used_only():
    cache = ReplyCache(limit=2)
    cache.put("a", b"1")
    cache.put("b", b"2")
    cache.get("a")
    cache.put("c", b"3")
    assert "a" in cache and "c" in cache and "b" not in cache
    assert len(cache) == 2


def test_site_duplicate_suppression_is_lru(monkeypatch):
    """The simnet Site inherits the LRU cache: a hot retransmitted
    exchange keeps returning its cached reply (handler runs once) even
    after enough cold exchanges to overflow the cache."""
    site = Network().add_site("B")
    site.reply_cache = ReplyCache(limit=4)
    calls = []
    site.register_handler(
        MessageKind.CALL, lambda m: calls.append(m.payload) or b"r"
    )

    def deliver(exchange_id, payload=b"p"):
        message = Message(
            src="A", dst="B", kind=MessageKind.CALL, payload=payload
        )
        return site.handle_at_most_once(exchange_id, message)

    assert deliver("hot") == b"r"
    assert len(calls) == 1
    for index in range(8):  # cold traffic far beyond the limit...
        deliver(f"cold-{index}")
        assert deliver("hot") == b"r"  # ...with hot retransmissions
    assert len(calls) == 1 + 8  # hot executed once, colds once each
