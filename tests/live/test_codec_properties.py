"""Hypothesis round-trip properties for the binary wire codec.

``decode(encode(x)) == x`` for every FSR message type, and malformed
input (truncations, garbage) either raises :class:`CodecError` or
decodes to something that re-encodes to exactly the bytes parsed —
the codec never silently mis-parses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fsr.messages import AckBatch, AckMsg, FwdData, SeqData
from repro.errors import CodecError
from repro.live.codec import (
    FrameEncoder,
    Hello,
    decode_message,
    encode_frame,
    encode_message,
    decode_frame,
)
from repro.types import MessageId

_pid = st.integers(min_value=0, max_value=2**31 - 1)
_local_seq = st.integers(min_value=0, max_value=2**62)
_seqno = st.integers(min_value=0, max_value=2**62)
_watermark = st.integers(min_value=-1, max_value=2**62)
_view = st.integers(min_value=0, max_value=2**31 - 1)
_payload = st.binary(max_size=300)

_message_ids = st.builds(MessageId, origin=_pid, local_seq=_local_seq)


def _acks(view_id, draw):
    count = draw(st.integers(min_value=0, max_value=4))
    return [
        AckMsg(
            message_id=draw(_message_ids),
            sequence=draw(_seqno),
            stable=draw(st.booleans()),
            view_id=view_id,
        )
        for _ in range(count)
    ]


def _segment(origin, draw):
    if not draw(st.booleans()):
        return None
    return (
        MessageId(origin, draw(st.integers(min_value=0, max_value=2**32 - 1))),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


@st.composite
def fwd_data(draw):
    origin = draw(_pid)
    view_id = draw(_view)
    payload = draw(_payload)
    return FwdData(
        message_id=draw(_message_ids),
        origin=origin,
        payload=payload,
        payload_size=len(payload),
        view_id=view_id,
        watermark=draw(_watermark),
        piggybacked=_acks(view_id, draw),
        segment=_segment(origin, draw),
    )


@st.composite
def seq_data(draw):
    origin = draw(_pid)
    view_id = draw(_view)
    payload = draw(_payload)
    return SeqData(
        message_id=draw(_message_ids),
        origin=origin,
        payload=payload,
        payload_size=len(payload),
        sequence=draw(_seqno),
        stable=draw(st.booleans()),
        view_id=view_id,
        watermark=draw(_watermark),
        piggybacked=_acks(view_id, draw),
        segment=_segment(origin, draw),
    )


@st.composite
def ack_batch(draw):
    view_id = draw(_view)
    return AckBatch(
        acks=_acks(view_id, draw),
        view_id=view_id,
        watermark=draw(_watermark),
    )


hello = st.builds(Hello, node_id=_pid)

any_message = st.one_of(fwd_data(), seq_data(), ack_batch(), hello)


@given(message=any_message)
@settings(max_examples=200, deadline=None)
def test_round_trip_every_message_type(message):
    assert decode_message(encode_message(message)) == message


@given(message=any_message)
@settings(max_examples=100, deadline=None)
def test_frame_round_trip(message):
    frame = encode_frame(message)
    decoded, consumed = decode_frame(frame)
    assert decoded == message
    assert consumed == len(frame)
    # The transport's parts are the same bytes, and a data frame's last
    # part is its payload object, not a copy.
    parts = FrameEncoder().encode_parts(message)
    assert b"".join(parts) == frame
    if isinstance(message, (FwdData, SeqData)):
        assert parts[-1] is message.payload


@given(
    message=st.one_of(fwd_data(), seq_data(), ack_batch()),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_truncations_never_misparse(message, data):
    """A cut body raises, or decodes self-consistently (a shorter
    payload is indistinguishable by design — framing carries length)."""
    body = encode_message(message)
    cut = data.draw(st.integers(min_value=0, max_value=max(0, len(body) - 1)))
    try:
        decoded = decode_message(body[:cut])
    except CodecError:
        return
    assert encode_message(decoded) == body[:cut]


@given(garbage=st.binary(min_size=0, max_size=120))
@settings(max_examples=200, deadline=None)
def test_garbage_never_misparses(garbage):
    try:
        decoded = decode_message(garbage)
    except CodecError:
        return
    assert encode_message(decoded) == garbage
