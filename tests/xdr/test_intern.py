"""The one string intern table every codec shares (``repro.xdr.stream``).

A string travels as its whole XDR image (length word, UTF-8 bytes, zero
padding); ``IMAGES`` / ``TEXTS`` map one to the other, so the ids every
message repeats cost one dict probe each way.  Frames and payloads
share the table; it stays bounded, a miss is checked before it enters,
and threads decoding at once all read what was written.
"""

import threading

import pytest

from repro.transport.framing import FramingError, Hello, decode_frame
from repro.transport.framing import LENGTH_PREFIX, encode_frame
from repro.xdr import stream
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder


def _image(text: str) -> bytes:
    encoder = XdrEncoder()
    encoder.pack_string(text)
    return encoder.getvalue()


def _raw_image(text: str) -> bytes:
    """The image built by hand, so the table has not seen it."""
    raw = text.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw + bytes(-len(raw) % 4)


def test_an_image_is_the_canonical_string_encoding():
    for text in ("", "a", "abcd", "héllo✓"):
        want = _raw_image(text)
        assert stream.string_image(text) == _image(text) == want
        assert stream.image_text(want) == text
        assert XdrDecoder(want).unpack_string() == text


def test_frames_and_payloads_share_one_table():
    site = "shared-site-id"
    encode_frame(Hello(2, site))
    assert stream.IMAGES[site] == _image(site)
    assert stream.TEXTS[_image(site)] == site


def test_the_table_stays_bounded_under_distinct_strings():
    cap = stream.INTERN_CAP
    for index in range(3 * cap):
        # Decode before any encode: the decode side interns too.
        text = f"id-{index}"
        assert XdrDecoder(_raw_image(text)).unpack_string() == text
        assert stream.string_image(f"out-{index}") == _raw_image(
            f"out-{index}"
        )
        assert len(stream.IMAGES) <= cap and len(stream.TEXTS) <= cap


def test_only_short_images_enter_the_table():
    long_text = "x" * stream.INTERN_MAX_BYTES
    image = _raw_image(long_text)
    assert XdrDecoder(image).unpack_string() == long_text
    assert stream.string_image(long_text) == image
    assert long_text not in stream.IMAGES and image not in stream.TEXTS


@pytest.mark.parametrize(
    "image, why",
    [
        (b"\x00\x00\x00\x02ab\x00\x01", "nonzero padding"),
        (b"\x00\x00\x00\x01\xff\x00\x00\x00", "not UTF-8"),
        (b"\x00\x00\x00\x03abc", "short padding"),
    ],
)
def test_a_miss_is_checked_before_it_enters(image, why):
    with pytest.raises(XdrError):
        stream.image_text(image)
    with pytest.raises(XdrError):
        XdrDecoder(image).unpack_string()
    assert image not in stream.TEXTS, why


def test_framing_still_reports_a_bad_string_as_a_framing_error():
    body = bytearray(encode_frame(Hello(2, "never-interned-x")))
    body[-3] = 0xFF  # inside the UTF-8 of the site id
    with pytest.raises(FramingError):
        decode_frame(bytes(body[LENGTH_PREFIX.size :]))


def test_decoders_on_concurrent_threads_agree(monkeypatch):
    # A small cap makes the threads clear the table under each other.
    monkeypatch.setattr(stream, "INTERN_CAP", 8)
    texts = [f"thread-{worker}-{index}" for worker in range(8)
             for index in range(16)] + ["common-a", "common-b"]
    images = {text: _raw_image(text) for text in texts}
    failures = []

    def decode(worker: int) -> None:
        mine = [t for t in texts if t.startswith(f"thread-{worker}-")]
        for _ in range(200):
            for text in mine + ["common-a", "common-b"]:
                got = XdrDecoder(bytes(images[text])).unpack_string()
                if got != text or stream.string_image(text) != images[text]:
                    failures.append((worker, text, got))

    threads = [threading.Thread(target=decode, args=(worker,))
               for worker in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not failures, failures[:5]
