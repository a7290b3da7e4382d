"""Property tests for the batch frame.

The fast path's contract (PROTOCOL.md appendix C):

* ``decode(encode(FrameBatch)) == FrameBatch`` over arbitrary mixes of
  the batchable ring messages;
* truncated or corrupted batch bodies raise :class:`CodecError` or
  decode to something that re-encodes byte-identically — never a
  silent misparse;
* ``wire_size_bytes()`` parity holds for every entry: a batch costs
  exactly :data:`BATCH_HEADER_BYTES` + the entries' plain frames, and
  the disabled-batching path stays at ``prefix + wire_size_bytes()``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fsr.messages import AckBatch, FwdData, SeqData
from repro.errors import CodecError
from repro.live.codec import (
    BATCH_HEADER_BYTES,
    KIND_BATCH,
    LENGTH_PREFIX_BYTES,
    ControlFrame,
    FrameBatch,
    Hello,
    batch_frame_parts,
    batch_header,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)

from .test_codec_properties import ack_batch, fwd_data, seq_data

batchable = st.one_of(fwd_data(), seq_data(), ack_batch())
batches = st.builds(
    FrameBatch, messages=st.lists(batchable, min_size=0, max_size=6)
)


@given(batch=batches)
@settings(max_examples=150, deadline=None)
def test_batch_round_trip_arbitrary_mixes(batch):
    body = encode_message(batch)
    assert decode_message(body) == batch
    # Zero-copy decode path: a memoryview body decodes identically.
    assert decode_message(memoryview(body)) == batch


@given(batch=batches)
@settings(max_examples=100, deadline=None)
def test_batch_wire_size_parity(batch):
    """A batch adds exactly the 4-byte header over its plain frames,
    each of which still costs prefix + ``wire_size_bytes()``."""
    body = encode_message(batch)
    assert len(body) == BATCH_HEADER_BYTES + sum(
        LENGTH_PREFIX_BYTES + message.wire_size_bytes()
        for message in batch.messages
    )


@given(batch=batches)
@settings(max_examples=100, deadline=None)
def test_batch_frame_parts_matches_encode(batch):
    """The transport's writelines parts are byte-identical to encoding
    the equivalent :class:`FrameBatch` as one frame."""
    parts = batch_frame_parts(
        [encode_frame(message) for message in batch.messages]
    )
    assert b"".join(parts) == encode_frame(batch)


@given(batch=batches, data=st.data())
@settings(max_examples=150, deadline=None)
def test_batch_truncations_never_misparse(batch, data):
    body = encode_message(batch)
    cut = data.draw(st.integers(min_value=0, max_value=max(0, len(body) - 1)))
    try:
        decoded = decode_message(body[:cut])
    except CodecError:
        return
    assert encode_message(decoded) == body[:cut]


@given(batch=batches, data=st.data())
@settings(max_examples=150, deadline=None)
def test_batch_corruption_never_misparses(batch, data):
    """Flip one byte anywhere in a valid batch body: decode raises or
    re-encodes to exactly the corrupted bytes."""
    body = bytearray(encode_message(batch))
    if not body:
        return
    index = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
    body[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    corrupted = bytes(body)
    try:
        decoded = decode_message(corrupted)
    except CodecError:
        return
    assert encode_message(decoded) == corrupted


@given(garbage=st.binary(min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_batch_prefixed_garbage_never_misparses(garbage):
    body = bytes([KIND_BATCH]) + garbage
    try:
        decoded = decode_message(body)
    except CodecError:
        return
    assert encode_message(decoded) == body


def test_non_batchable_entries_rejected_on_encode():
    for bad in (
        Hello(node_id=1),
        ControlFrame(layer="fd", inner=None),
        FrameBatch(messages=[]),
    ):
        with pytest.raises(CodecError):
            encode_message(FrameBatch(messages=[bad]))


def test_nested_batch_rejected_on_decode():
    inner = encode_frame(FrameBatch(messages=[]))
    with pytest.raises(CodecError, match="nested"):
        decode_message(batch_header(1) + inner)


def test_hello_entry_rejected_on_decode():
    frame = encode_frame(Hello(node_id=3))
    with pytest.raises(CodecError, match="ring data"):
        decode_message(batch_header(1) + frame)


def test_nonzero_batch_flags_rejected():
    body = bytearray(encode_message(FrameBatch(messages=[])))
    body[1] = 0x40
    with pytest.raises(CodecError, match="flags"):
        decode_message(bytes(body))


def test_trailing_bytes_after_batch_rejected():
    body = encode_message(FrameBatch(messages=[]))
    with pytest.raises(CodecError, match="trailing"):
        decode_message(body + b"\x00")


def test_entry_count_out_of_range():
    with pytest.raises(CodecError, match="out of range"):
        batch_header(0x10000)
    with pytest.raises(CodecError, match="out of range"):
        batch_header(-1)


def test_decode_frame_handles_batches():
    batch = FrameBatch(
        messages=[AckBatch(acks=[], view_id=0, watermark=-1)]
    )
    frame = encode_frame(batch)
    decoded, consumed = decode_frame(frame)
    assert decoded == batch
    assert consumed == len(frame)
