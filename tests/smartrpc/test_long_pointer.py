"""Tests for long pointers and their encodings."""

import pytest

from repro.smartrpc.long_pointer import (
    PROVISIONAL_BASE,
    HandlePool,
    LongPointer,
    decode_long_pointer,
    decode_long_pointer_pooled,
    encode_long_pointer,
    encode_long_pointer_pooled,
    read_pool_head,
)
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder


class TestLongPointer:
    def test_fields(self):
        pointer = LongPointer("A", 0x1000, "node")
        assert pointer.space_id == "A"
        assert pointer.address == 0x1000
        assert pointer.type_id == "node"

    def test_equality_and_hash(self):
        first = LongPointer("A", 1, "t")
        second = LongPointer("A", 1, "t")
        assert first == second
        assert hash(first) == hash(second)
        assert first != LongPointer("B", 1, "t")

    def test_differs_in_each_field(self):
        pointer = LongPointer("A", 8, "t")
        assert pointer != LongPointer("A", 16, "t")
        assert pointer != LongPointer("A", 8, "u")
        assert len({pointer, LongPointer("A", 8, "t")}) == 1

    def test_immutable_and_dictless(self):
        pointer = LongPointer("A", 8, "t")
        for name in ("space_id", "address", "type_id", "anything"):
            with pytest.raises(AttributeError):
                setattr(pointer, name, 1)
        assert not hasattr(pointer, "__dict__")

    def test_copies_and_pickles_as_itself(self):
        import copy
        import pickle

        pointer = LongPointer("A", 8, "t")
        for clone in (
            copy.copy(pointer),
            copy.deepcopy(pointer),
            pickle.loads(pickle.dumps(pointer)),
        ):
            assert type(clone) is LongPointer and clone == pointer

    def test_zero_address_rejected(self):
        with pytest.raises(XdrError):
            LongPointer("A", 0, "t")

    def test_negative_address_rejected(self):
        with pytest.raises(XdrError):
            LongPointer("A", -4, "t")

    def test_provisional_detection(self):
        assert LongPointer("A", PROVISIONAL_BASE, "t").is_provisional
        assert not LongPointer("A", 0x1000, "t").is_provisional

    def test_with_address_repoints(self):
        provisional = LongPointer("A", PROVISIONAL_BASE + 5, "t")
        real = provisional.with_address(0x2000)
        assert real.address == 0x2000
        assert real.space_id == "A" and real.type_id == "t"
        assert not real.is_provisional


class TestPlainEncoding:
    def test_round_trip(self):
        pointer = LongPointer("site-9", 0xABCDEF, "some_type")
        encoder = XdrEncoder()
        encode_long_pointer(encoder, pointer)
        decoder = XdrDecoder(encoder.getvalue())
        assert decode_long_pointer(decoder) == pointer
        decoder.expect_done()

    def test_null_round_trip(self):
        encoder = XdrEncoder()
        encode_long_pointer(encoder, None)
        assert decode_long_pointer(XdrDecoder(encoder.getvalue())) is None


class TestHandlePool:
    def test_intern_is_stable(self):
        pool = HandlePool()
        first = pool.intern("A", "t")
        second = pool.intern("A", "t")
        assert first == second
        assert pool.intern("B", "t") != first

    def test_handles_start_at_one(self):
        pool = HandlePool()
        assert pool.intern("A", "t") == 1  # zero is NULL

    def test_lookup_round_trip(self):
        pool = HandlePool()
        handle = pool.intern("A", "t")
        assert pool.lookup(handle) == ("A", "t")

    def test_bad_handle_rejected(self):
        pool = HandlePool()
        with pytest.raises(XdrError):
            pool.lookup(1)
        with pytest.raises(XdrError):
            pool.lookup(0)

    def test_pool_encoding_round_trip(self):
        pool = HandlePool()
        pool.intern("A", "t1")
        pool.intern("B", "t2")
        head = pool.head()
        pairs, end = read_pool_head(head, len(head))
        assert end == len(head)
        decoded = HandlePool(pairs)
        assert len(decoded) == 2
        assert decoded.lookup(1) == ("A", "t1")
        assert decoded.lookup(2) == ("B", "t2")

    def test_a_decoded_pool_is_its_own(self):
        """Interning into one decoded pool leaves the next one decoded
        from the same head alone."""
        pool = HandlePool()
        pool.intern("A", "t1")
        head = pool.head()
        first = HandlePool(read_pool_head(head, len(head))[0])
        first.intern("C", "t3")
        second = HandlePool(read_pool_head(head, len(head))[0])
        assert second.pairs == [("A", "t1")] and len(first) == 2

    def test_a_bad_pool_table_is_rejected(self):
        image = bytearray(HandlePool([("A", "t9")]).head())
        image[-1] = 1  # padding after "t9"
        with pytest.raises(XdrError):
            read_pool_head(bytes(image), len(image))
        with pytest.raises(XdrError):  # two pairs announced, one present
            read_pool_head(b"\x00\x00\x00\x02" + image[4:], len(image))


class TestPooledEncoding:
    def test_round_trip(self):
        pool = HandlePool()
        pointer = LongPointer("A", 0x4444, "node")
        encoder = XdrEncoder()
        encode_long_pointer_pooled(encoder, pointer, pool)
        decoder = XdrDecoder(encoder.getvalue())
        assert decode_long_pointer_pooled(decoder, pool) == pointer

    def test_null_is_four_bytes(self):
        encoder = XdrEncoder()
        encode_long_pointer_pooled(encoder, None, HandlePool())
        assert encoder.getvalue() == b"\x00\x00\x00\x00"

    def test_pointer_is_twelve_bytes(self):
        pool = HandlePool()
        encoder = XdrEncoder()
        encode_long_pointer_pooled(
            encoder, LongPointer("A", 1, "t"), pool
        )
        assert len(encoder.getvalue()) == 12

    def test_pool_shared_across_pointers(self):
        pool = HandlePool()
        encoder = XdrEncoder()
        for address in (1, 2, 3):
            encode_long_pointer_pooled(
                encoder, LongPointer("A", address, "t"), pool
            )
        assert len(pool) == 1  # one (space, type) pair interned once

    def test_provisional_address_rejected_on_wire(self):
        pointer = LongPointer("A", PROVISIONAL_BASE, "t")
        with pytest.raises(XdrError):
            encode_long_pointer_pooled(XdrEncoder(), pointer, HandlePool())

    def test_batch_of_mixed_pointers(self):
        pool = HandlePool()
        pointers = [
            LongPointer("A", 16, "t1"),
            None,
            LongPointer("B", 32, "t2"),
            LongPointer("A", 48, "t1"),
        ]
        encoder = XdrEncoder()
        for pointer in pointers:
            encode_long_pointer_pooled(encoder, pointer, pool)
        decoder = XdrDecoder(encoder.getvalue())
        out = [decode_long_pointer_pooled(decoder, pool) for _ in range(4)]
        assert out == pointers
        decoder.expect_done()
