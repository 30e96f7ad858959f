"""Tests for statistics collection and tracing."""

from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector


def _message(kind=MessageKind.CALL, size=10):
    return Message(src="A", dst="B", kind=kind, payload=b"x" * size)


class TestCounters:
    def test_initially_zero(self):
        stats = StatsCollector()
        assert stats.total_messages == 0
        assert stats.total_bytes == 0
        assert stats.callbacks == 0

    def test_record_message(self):
        stats = StatsCollector()
        stats.record_message(_message(size=5))
        stats.record_message(_message(MessageKind.REPLY, size=7))
        assert stats.total_messages == 2
        assert stats.total_bytes == 12

    def test_callbacks_count_data_requests_only(self):
        stats = StatsCollector()
        stats.record_message(_message(MessageKind.DATA_REQUEST))
        stats.record_message(_message(MessageKind.DATA_REPLY))
        stats.record_message(_message(MessageKind.CALL))
        assert stats.callbacks == 1

    def test_reset_zeroes_everything(self):
        stats = StatsCollector(trace=True)
        stats.record_message(_message())
        stats.page_faults = 3
        stats.record_event(1.0, "x", "y")
        stats.reset()
        assert stats.total_messages == 0
        assert stats.page_faults == 0
        assert stats.events == []

    def test_summary_mentions_key_counters(self):
        stats = StatsCollector()
        stats.record_message(_message(MessageKind.DATA_REQUEST, size=3))
        text = stats.summary()
        assert "callbacks" in text
        assert "messages: 1 (3 bytes)" in text


class TestTrace:
    def test_trace_disabled_by_default(self):
        stats = StatsCollector()
        stats.record_event(0.5, "message", "detail")
        assert stats.events == []

    def test_trace_enabled_records(self):
        stats = StatsCollector(trace=True)
        stats.record_event(0.5, "message", "detail")
        assert len(stats.events) == 1
        assert stats.events[0].time == 0.5
        assert stats.events[0].category == "message"

    def test_events_in_filters_by_category(self):
        stats = StatsCollector(trace=True)
        stats.record_event(0.1, "message", "a")
        stats.record_event(0.2, "fault", "b")
        stats.record_event(0.3, "message", "c")
        assert [e.detail for e in stats.events_in("message")] == ["a", "c"]
