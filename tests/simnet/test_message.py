"""Tests for network messages."""

from repro.simnet.message import Message, MessageKind


class TestMessage:
    def test_size_is_payload_length(self):
        message = Message("A", "B", MessageKind.CALL, b"12345")
        assert message.size == 5

    def test_ids_are_unique_and_increasing(self):
        first = Message("A", "B", MessageKind.CALL, b"")
        second = Message("A", "B", MessageKind.CALL, b"")
        assert second.msg_id > first.msg_id

    def test_kind_values_stable(self):
        # Wire-protocol identifiers: renaming one is a compatibility
        # break, so pin them.
        assert MessageKind.CALL.value == "call"
        assert MessageKind.DATA_REQUEST.value == "data_request"
        assert MessageKind.WRITEBACK_PREPARE.value == "writeback_prepare"
        assert MessageKind.INVALIDATE.value == "invalidate"
        assert MessageKind.MEMORY_BATCH.value == "memory_batch"

    def test_all_kinds_have_distinct_values(self):
        values = [kind.value for kind in MessageKind]
        assert len(values) == len(set(values))
