"""The one-call single-seq ACK codec is the general codec.

``encode_ack`` packs a one-seq list with a single ``struct`` call and
``decode_ack`` unpacks a six-byte payload the same way; every other list
and payload goes through the general codec (``_encode_ack_seqs`` /
``_decode_ack_seqs``). For seq lists of length 0-300 both paths must give
the same bytes and the same values, and for every malformed length, and
every six-byte payload whose count is not one, the same ``ProtocolError``
text.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.reliability import (
    _decode_ack_seqs,
    _encode_ack_seqs,
    decode_ack,
    decode_nack,
    encode_ack,
    encode_nack,
)
from repro.util.errors import ProtocolError

_seq = st.integers(0, 2**32 - 1)
_seqs = st.lists(_seq, min_size=0, max_size=300)


def _error(fn, payload):
    with pytest.raises(ProtocolError) as info:
        fn(payload)
    return str(info.value)


@settings(max_examples=300, deadline=None)
@given(seqs=_seqs)
def test_encode_matches_the_general_path(seqs):
    encoded = encode_ack(seqs)
    assert encoded == _encode_ack_seqs(seqs)
    assert encode_nack(seqs) == encoded
    assert decode_ack(encoded) == _decode_ack_seqs(encoded) == seqs
    assert decode_nack(encoded) == seqs


@settings(max_examples=300, deadline=None)
@given(seq=_seq)
def test_single_seq_round_trip(seq):
    encoded = encode_ack([seq])
    assert len(encoded) == 6
    assert encoded == _encode_ack_seqs([seq])
    assert decode_ack(encoded) == _decode_ack_seqs(encoded) == [seq]


@settings(max_examples=300, deadline=None)
@given(seqs=_seqs, cut=st.integers(1, 1203), extra=st.binary(min_size=1, max_size=8))
def test_malformed_lengths_raise_the_same_error(seqs, cut, extra):
    encoded = _encode_ack_seqs(seqs)
    for payload in (encoded[: max(0, len(encoded) - cut)], encoded + extra):
        assert _error(decode_ack, payload) == _error(_decode_ack_seqs, payload)


@settings(max_examples=300, deadline=None)
@given(count=st.integers(0, 0xFFFF).filter(lambda c: c != 1), seq=_seq)
def test_six_byte_payloads_with_another_count(count, seq):
    # Six bytes is the single-seq size, but only a count of one is a
    # single-seq ACK: any other count is a wrong-size payload.
    payload = struct.pack("<HI", count, seq)
    assert _error(decode_ack, payload) == _error(_decode_ack_seqs, payload)


@pytest.mark.parametrize("length", range(0, 12))
def test_every_short_length(length):
    # Too short for a count, or a count (0x0201) that fits none of them.
    payload = bytes(range(1, length + 1))
    assert _error(decode_ack, payload) == _error(_decode_ack_seqs, payload)


@pytest.mark.parametrize("seq", [-1, 2**32])
def test_out_of_range_seq_raises_the_same_struct_error(seq):
    with pytest.raises(struct.error) as fast:
        encode_ack([seq])
    with pytest.raises(struct.error) as general:
        _encode_ack_seqs([seq])
    assert str(fast.value) == str(general.value)
