"""The compiled frame codec against the hand-written ladder it replaced.

``tests/transport/frame_ladder.py`` is the parent's codec verbatim;
the compiled one must write the same bytes for every frame, accept and
reject the same bodies, and decode the accepted ones to equal frames.
The golden vectors were captured at the parent commit, so the wire
image is pinned even if both codecs were ever changed together; the
``REQUEST`` vector was captured when protocol version 4 took the site
ids out of that frame and made its kind a word.
"""

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.transport import framing
from repro.transport.framing import (
    LENGTH_PREFIX,
    PROTOCOL_VERSION,
    STATUS_HANDLER_ERROR,
    STATUS_OK,
    FramingError,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
    Welcome,
    decode_frame,
    encode_frame,
    encode_frame_into,
)
from repro.xdr import stream
from repro.xdr.stream import XdrEncoder
from tests.transport import frame_ladder

#: One wire image per frame type, as the parent commit encoded it.
GOLDEN = [
    (
        Hello(version=2, site_id="A"),
        "0000001000000001000000020000000141000000",
    ),
    (
        Welcome(version=2, site_id="site-β"),
        "00000014000000020000000200000007736974652dceb200",
    ),
    (
        Goodbye(site_id="B", reason="unsupported protocol version 3"),
        "000000300000000300000001420000000000001e756e737570706f7274656420"
        "70726f746f636f6c2076657273696f6e20330000",
    ),
    (
        Request(
            exchange_id=(7 << 32) | 1,
            kind="data_request",
            expects_reply=True,
            payload=b"\x00\x01payload",
            clock=(("A", 5), ("B", 2**40 + 3)),
        ),
        "0000004800000004000000070000000100000003000000010000000200000001"
        "4100000000000000000000050000000142000000000001000000000300000009"
        "00017061796c6f6164000000",
    ),
    (
        Reply(
            exchange_id=2**64 - 1,
            status=STATUS_HANDLER_ERROR,
            payload=b"boom!",
            clock=(("B", 9),),
        ),
        "0000003000000005ffffffffffffffff00000001000000010000000142000000"
        "000000000000000900000005626f6f6d21000000",
    ),
    (Ping(token=41), "0000000c000000060000000000000029"),
    (Pong(token=2**64 - 1), "0000000c00000007ffffffffffffffff"),
]


@pytest.mark.parametrize(
    "frame, image", GOLDEN, ids=lambda v: type(v).__name__
)
def test_golden_vectors(frame, image):
    wire = bytes.fromhex(image)
    assert encode_frame(frame) == wire
    assert decode_frame(wire[LENGTH_PREFIX.size :]) == frame
    assert repr(decode_frame(wire[LENGTH_PREFIX.size :])) == repr(frame)


def test_golden_vectors_cover_every_frame_type():
    table = framing._FRAME_TABLE
    assert {type(frame) for frame, _ in GOLDEN} == {row[0] for row in table}
    assert [row[1] for row in table] == list(framing.FrameType)
    assert len(table) == 7 and PROTOCOL_VERSION == 4


def test_a_frame_type_is_compiled_on_its_first_use(monkeypatch):
    """Importing the module compiles nothing (a simnet-only process
    never pays for a codec); each table row is compiled once, by the
    first frame of its type in either direction."""
    monkeypatch.setattr(framing, "_ENCODERS", {})
    monkeypatch.setattr(framing, "_DECODERS", {})
    with pytest.raises(FramingError):
        encode_frame(("not", "a", "frame"))
    with pytest.raises(FramingError):
        decode_frame(b"\x00\x00\x00\x63")
    assert not framing._ENCODERS and not framing._DECODERS
    wire = encode_frame(Ping(41))
    assert set(framing._ENCODERS) == {Ping} and set(framing._DECODERS) == {6}
    ping = framing._ENCODERS[Ping]
    assert decode_frame(wire[LENGTH_PREFIX.size :]) == Ping(41)
    assert decode_frame(bytes.fromhex(GOLDEN[-1][1])[4:]) == GOLDEN[-1][0]
    assert set(framing._ENCODERS) == {Ping, Pong}
    assert set(framing._DECODERS) == {6, 7}
    assert framing._ENCODERS[Ping] is ping


# -- differential: equal bytes out, equal frames back -----------------------

uint32s = st.one_of(
    st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2**32 - 1])
)
uint64s = st.one_of(
    st.integers(0, 2**64 - 1), st.sampled_from([0, 2**32, 2**64 - 1])
)
#: Site ids: mostly a small recurring pool (so the intern tables are
#: hit as well as filled), otherwise arbitrary text — empty,
#: non-ASCII, astral — of every length mod 4.
names = st.one_of(
    st.sampled_from(["A", "B", "call", "data_request", "srpc-77-ab", "β"]),
    st.text(max_size=9),
)
#: A REQUEST's kind: any kind with a wire word.
kinds = st.sampled_from(sorted(framing.KIND_WORDS))
clocks = st.lists(st.tuples(names, uint64s), max_size=4).map(tuple)
payloads = st.one_of(
    st.binary(max_size=40),
    st.integers(0, 7).map(bytes),
    st.integers(0, 7).map(lambda n: b"\xff" * n),
)

frames = st.one_of(
    st.builds(Hello, uint32s, names),
    st.builds(Welcome, uint32s, names),
    st.builds(Goodbye, names, st.text(max_size=60)),
    st.builds(Request, uint64s, kinds, st.booleans(), payloads, clocks),
    st.builds(Reply, uint64s, uint32s, payloads, clocks),
    st.builds(Ping, uint64s),
    st.builds(Pong, uint64s),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(frame=frames)
def test_codec_matches_ladder(frame):
    wire = encode_frame(frame)
    assert wire == frame_ladder.encode_frame(frame)
    body = memoryview(wire)[LENGTH_PREFIX.size :]
    decoded = decode_frame(body)
    assert decoded == frame == frame_ladder.decode_frame(body)
    assert type(decoded) is type(frame)
    assert repr(decoded) == repr(frame)
    assert decode_frame(bytes(body)) == frame  # bytes and bytearray too
    assert decode_frame(bytearray(body)) == frame
    # Into a buffer that already holds something, at its end.
    encoder = XdrEncoder()
    encoder.pack_uint64(7)
    image = encode_frame_into(frame, encoder)
    assert bytes(image) == wire
    assert encoder.getvalue() == b"\x00" * 7 + b"\x07" + wire


# -- mutation fuzz: accept/reject parity ------------------------------------


def _outcome(decode, body):
    try:
        return decode(body)
    except FramingError:
        return FramingError
    except UnicodeDecodeError:
        # Only the ladder may: a string field that is not UTF-8, which
        # the compiled decoder reports as the FramingError it is.
        assert decode is frame_ladder.decode_frame
        return FramingError


def _mutants(rng, body):
    """Bit flips, truncations and appended words of one frame body."""
    for _ in range(24):
        mutant = bytearray(body)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
        yield bytes(mutant)
    for _ in range(8):
        yield body[: rng.randrange(len(body))]
    yield body + b"\x00\x00\x00\x00"
    yield body + bytes(rng.randrange(256) for _ in range(4))
    yield body + b"\x00"


SEED_FRAMES = [frame for frame, _ in GOLDEN] + [
    Request(1, "call", False, b""),
    Request(2, "call", True, b"abc", (("A", 1), ("B", 2), ("β", 3))),
    Reply(2, STATUS_OK, b"\x01" * 6, (("A", 1), ("B", 3))),
]


def test_mutation_fuzz_accepts_and_rejects_like_the_ladder():
    rng = random.Random(18)
    mutants = accepted = 0
    for round_ in range(60):  # 10 seed frames, 35 mutants each
        for frame in SEED_FRAMES:
            body = encode_frame(frame)[LENGTH_PREFIX.size :]
            for mutant in _mutants(rng, body):
                expected = _outcome(frame_ladder.decode_frame, mutant)
                assert _outcome(decode_frame, mutant) == expected, (
                    frame, mutant.hex(),
                )
                mutants += 1
                accepted += expected is not FramingError
    assert mutants >= 20_000
    # The fuzz exercises both verdicts, not just rejection.
    assert mutants // 10 < accepted < mutants


# -- bounded, and shared between threads ------------------------------------


def test_intern_tables_stay_bounded_under_distinct_ids():
    cap = stream.INTERN_CAP
    for index in range(10_000):
        frame = Request(
            index, "call", True, b"x",
            ((f"site-{index}", index), (f"peer-{index}", 1)),
        )
        # Decode from ladder-made bytes, so the decode side does the
        # interning of ids it has never seen.
        body = frame_ladder.encode_frame(frame)[LENGTH_PREFIX.size :]
        assert decode_frame(body) == frame
        assert len(stream.TEXTS) <= cap and len(stream.IMAGES) <= cap
    assert encode_frame(frame) == frame_ladder.encode_frame(frame)
    # Hostile ids never entered the tables at all.
    poisoned = bytearray(encode_frame(Hello(2, "never-seen-before")))
    poisoned[-3] = 0xFF
    before = len(stream.TEXTS)
    with pytest.raises(FramingError):
        decode_frame(bytes(poisoned[LENGTH_PREFIX.size :]))
    assert len(stream.TEXTS) == before


def test_concurrent_codec_calls_share_no_buffer():
    """Eight threads, each with its own frames: every image and every
    decoded frame must be the thread's own (the pooled encoder this
    codec replaced was per call; there is no shared scratch now)."""
    rounds, failures = 400, []

    def worker(ident: int) -> None:
        site = f"thread-{ident}"
        for count in range(rounds):
            request = Request(
                (ident << 32) | count, "call",
                True, bytes([ident]) * (count % 50),
                ((site, count), (f"z-{ident}", ident)),
            )
            reply = Reply(count, ident, bytes([ident]) * (count % 7))
            for frame in (request, reply):
                wire = encode_frame(frame)
                back = decode_frame(memoryview(wire)[LENGTH_PREFIX.size :])
                if back != frame or wire != frame_ladder.encode_frame(frame):
                    failures.append((ident, count, frame, back))
                    return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [
            threading.Thread(target=worker, args=(ident,)) for ident in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:1]
