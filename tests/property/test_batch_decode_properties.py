"""Differential suite: bounded in-place batch decode against sliced decode.

``decode_batch_payload`` decodes each inner frame in place with
``Frame.decode(payload, start, stop)``. The oracle here is the sliced form
it replaced: every entry cut out with ``payload[a:b]`` and decoded on its
own. On well-formed batches both must give the same ``Frame`` list; on
malformed ones both must raise ``EncodingError`` with the same text. The
bounded ``Frame.decode`` itself must match ``Frame.decode(data[a:b])`` on
arbitrary bytes and bounds, errors included.
"""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.protocol.batching import decode_batch_payload, encode_batch_payload
from repro.protocol.frames import Frame, MessageKind
from repro.util.errors import EncodingError, ProtocolError

_COUNT = struct.Struct("<H")
_LEN = struct.Struct("<I")

_INNER_KINDS = [
    k for k in MessageKind if k not in (MessageKind.BATCH, MessageKind.FRAGMENT)
]

frames_st = st.builds(
    Frame,
    kind=st.sampled_from(_INNER_KINDS),
    source=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=16),
    payload=st.binary(max_size=96),
    channel=st.integers(min_value=0, max_value=0xFFFF),
    seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
    flags=st.integers(min_value=0, max_value=3),
)
frame_lists = st.lists(frames_st, min_size=1, max_size=12)


def sliced_decode_batch_payload(payload: bytes):
    """The reference: each entry sliced out, then decoded on its own."""
    if len(payload) < _COUNT.size:
        raise EncodingError(
            f"batch payload truncated inside header: {len(payload)} bytes"
        )
    (count,) = _COUNT.unpack_from(payload)
    if count == 0:
        raise EncodingError("zero-frame batch")
    frames = []
    offset = _COUNT.size
    for index in range(count):
        if len(payload) < offset + _LEN.size:
            raise EncodingError(
                f"batch payload truncated in length prefix of frame {index}"
            )
        (length,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        if len(payload) < offset + length:
            raise EncodingError(
                f"inner frame {index} overruns batch payload "
                f"({length} bytes declared, {len(payload) - offset} left)"
            )
        try:
            frame = Frame.decode(payload[offset : offset + length])
        except ProtocolError as exc:
            raise EncodingError(f"inner frame {index} malformed: {exc}") from exc
        if frame.kind in (MessageKind.BATCH, MessageKind.FRAGMENT):
            raise EncodingError(
                f"inner frame {index} has illegal kind {frame.kind.name}"
            )
        frames.append(frame)
        offset += length
    if offset != len(payload):
        raise EncodingError(f"{len(payload) - offset} trailing bytes after batch frames")
    return frames


def outcome(decode, *args):
    """("ok", result) or (exception type name, message)."""
    try:
        return ("ok", decode(*args))
    except Exception as exc:  # noqa: BLE001 — the type is part of the outcome
        return (type(exc).__name__, str(exc))


def assert_same(payload: bytes):
    bounded = outcome(decode_batch_payload, payload)
    sliced = outcome(sliced_decode_batch_payload, payload)
    assert bounded == sliced
    return bounded


def entry_offsets(payload: bytes):
    """(length-prefix offset, frame start, frame stop) of each entry."""
    (count,) = _COUNT.unpack_from(payload)
    offset = _COUNT.size
    spans = []
    for _ in range(count):
        (length,) = _LEN.unpack_from(payload, offset)
        spans.append((offset, offset + _LEN.size, offset + _LEN.size + length))
        offset += _LEN.size + length
    return spans


class TestWellFormed:
    @given(frame_lists)
    def test_same_frames_as_sliced_decode(self, frames):
        payload = encode_batch_payload([f.encode() for f in frames])
        kind, decoded = assert_same(payload)
        assert kind == "ok"
        assert decoded == frames

    @given(frame_lists)
    def test_inner_payloads_are_bytes_copies(self, frames):
        payload = encode_batch_payload([f.encode() for f in frames])
        for frame in decode_batch_payload(payload):
            assert type(frame.payload) is bytes


class TestMalformed:
    @given(st.binary(max_size=1))
    def test_truncated_count(self, payload):
        kind, message = assert_same(payload)
        assert kind == "EncodingError" and "inside header" in message

    def test_zero_frames(self):
        kind, message = assert_same(_COUNT.pack(0))
        assert (kind, message) == ("EncodingError", "zero-frame batch")

    @given(frame_lists, st.integers(min_value=1, max_value=3))
    def test_truncated_length_prefix(self, frames, extra):
        payload = encode_batch_payload([f.encode() for f in frames])
        # Claim more frames than there are, then end inside the next prefix.
        (count,) = _COUNT.unpack_from(payload)
        bad = _COUNT.pack(count + 1) + payload[_COUNT.size:] + b"\x00" * extra
        kind, message = assert_same(bad)
        assert kind == "EncodingError" and "length prefix" in message

    @given(frame_lists, st.data())
    def test_overrun(self, frames, data):
        payload = encode_batch_payload([f.encode() for f in frames])
        spans = entry_offsets(payload)
        cut = data.draw(st.integers(min_value=spans[-1][1], max_value=len(payload) - 1))
        kind, message = assert_same(payload[:cut])
        assert kind == "EncodingError" and "overruns" in message

    @given(frame_lists, st.binary(min_size=1, max_size=8))
    def test_trailing_bytes(self, frames, tail):
        payload = encode_batch_payload([f.encode() for f in frames]) + tail
        kind, message = assert_same(payload)
        assert kind == "EncodingError" and "trailing bytes" in message

    @given(frame_lists, st.sampled_from([MessageKind.BATCH, MessageKind.FRAGMENT]), st.data())
    def test_nested_batch_or_fragment(self, frames, nested, data):
        at = data.draw(st.integers(min_value=0, max_value=len(frames) - 1))
        frames = list(frames)
        frames[at] = Frame(nested, frames[at].source, frames[at].payload)
        payload = encode_batch_payload([f.encode() for f in frames])
        kind, message = assert_same(payload)
        assert kind == "EncodingError" and f"illegal kind {nested.name}" in message

    @given(frame_lists, st.data())
    def test_bad_inner_magic(self, frames, data):
        payload = bytearray(encode_batch_payload([f.encode() for f in frames]))
        spans = entry_offsets(bytes(payload))
        at = data.draw(st.integers(min_value=0, max_value=len(spans) - 1))
        payload[spans[at][1]] ^= 0xFF
        kind, message = assert_same(bytes(payload))
        assert kind == "EncodingError" and "bad magic" in message

    @given(frame_lists, st.integers(min_value=64, max_value=255), st.data())
    def test_bad_inner_kind(self, frames, bad_kind, data):
        assert bad_kind not in {int(k) for k in MessageKind}
        payload = bytearray(encode_batch_payload([f.encode() for f in frames]))
        spans = entry_offsets(bytes(payload))
        at = data.draw(st.integers(min_value=0, max_value=len(spans) - 1))
        payload[spans[at][1] + 3] = bad_kind  # magic(2) + version(1), then kind
        kind, message = assert_same(bytes(payload))
        assert kind == "EncodingError" and f"unknown message kind {bad_kind}" in message

    @given(frame_lists, st.data())
    def test_inner_truncated_inside_source(self, frames, data):
        payload = bytearray(encode_batch_payload([f.encode() for f in frames]))
        spans = entry_offsets(bytes(payload))
        at = data.draw(st.integers(min_value=0, max_value=len(spans) - 1))
        payload[spans[at][1] + 11] = 0xFF  # the source-length byte
        kind, message = assert_same(bytes(payload))
        assert kind == "EncodingError" and "truncated inside source id" in message

    @given(st.binary(max_size=200))
    def test_random_bytes(self, payload):
        assert_same(payload)

    @given(frame_lists, st.data())
    def test_random_byte_flip(self, frames, data):
        payload = bytearray(encode_batch_payload([f.encode() for f in frames]))
        at = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        payload[at] = data.draw(st.integers(min_value=0, max_value=255))
        assert_same(bytes(payload))


class TestBoundedFrameDecode:
    @given(st.binary(max_size=64), st.data())
    def test_matches_sliced_decode_on_any_bytes(self, data, draw):
        start = draw.draw(st.integers(min_value=0, max_value=len(data)))
        stop = draw.draw(st.integers(min_value=start, max_value=len(data)))
        assert outcome(Frame.decode, data, start, stop) == outcome(
            Frame.decode, data[start:stop]
        )

    @given(frames_st, st.binary(max_size=8), st.binary(max_size=8))
    def test_decodes_a_frame_embedded_in_a_buffer(self, frame, before, after):
        raw = frame.encode()
        buffer = before + raw + after
        assert Frame.decode(buffer, len(before), len(before) + len(raw)) == frame
        assert Frame.decode(raw) == frame

    def test_default_bounds_are_the_whole_buffer(self):
        raw = Frame(MessageKind.EVENT, "src", b"payload", channel=3, seq=9).encode()
        assert Frame.decode(raw) == Frame.decode(raw, 0, len(raw))
        with pytest.raises(ProtocolError, match="frame too short: 3 bytes"):
            Frame.decode(raw, 0, 3)
