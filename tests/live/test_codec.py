"""Unit tests for the binary wire codec."""

import pickle

import pytest

from repro.core.fsr.messages import AckBatch, AckMsg, FwdData, SeqData
from repro.errors import CodecError
from repro.live.codec import (
    CHANNEL_CONTROL,
    KIND_CONTROL,
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    ControlFrame,
    FrameBatch,
    FrameEncoder,
    Hello,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    frame_length,
)
from repro.core.fsr.recovery import (
    FSRFlushState,
    MergedRecovery,
    RetainedMessage,
)
from repro.failure.detector import _Heartbeat
from repro.types import MessageId
from repro.vsc import membership as vsc


def _ack(view_id=3, stable=True):
    return AckMsg(
        message_id=MessageId(2, 5), sequence=7, stable=stable, view_id=view_id
    )


def _fwd(**overrides):
    base = dict(
        message_id=MessageId(1, 9),
        origin=1,
        payload=b"x" * 100,
        payload_size=100,
        view_id=3,
        watermark=4,
        piggybacked=[_ack()],
        segment=None,
    )
    base.update(overrides)
    return FwdData(**base)


def _seq(**overrides):
    base = dict(
        message_id=MessageId(1, 9),
        origin=1,
        payload=b"y" * 50,
        payload_size=50,
        sequence=12,
        stable=False,
        view_id=3,
        watermark=-1,
        piggybacked=[],
        segment=(MessageId(1, 4), 2, 8),
    )
    base.update(overrides)
    return SeqData(**base)


@pytest.mark.parametrize(
    "message",
    [
        _fwd(),
        _fwd(piggybacked=[], segment=(MessageId(1, 2), 0, 3)),
        _fwd(payload=b"", payload_size=0),
        _seq(),
        _seq(stable=True, segment=None, piggybacked=[_ack(), _ack(stable=False)]),
        AckBatch(acks=[_ack()], view_id=3, watermark=2),
        AckBatch(acks=[], view_id=0, watermark=-1),
        Hello(node_id=7),
    ],
)
def test_round_trip(message):
    decoded, consumed = decode_frame(encode_frame(message))
    assert decoded == message
    assert consumed == len(encode_frame(message))


@pytest.mark.parametrize(
    "message",
    [
        _fwd(),
        _fwd(segment=(MessageId(1, 2), 0, 3)),
        _seq(),
        _seq(segment=None),
        AckBatch(acks=[_ack(), _ack()], view_id=3),
    ],
)
def test_body_size_matches_wire_size_bytes(message):
    """The simulator's byte accounting is exactly what goes on the wire."""
    assert len(encode_message(message)) == message.wire_size_bytes()


def test_frame_adds_only_the_length_prefix():
    message = _fwd()
    assert (
        len(encode_frame(message))
        == LENGTH_PREFIX_BYTES + message.wire_size_bytes()
    )


def test_non_bytes_payload_rejected():
    with pytest.raises(CodecError, match="bytes"):
        encode_message(_fwd(payload=object(), payload_size=100))


def test_payload_size_mismatch_rejected():
    with pytest.raises(CodecError, match="payload"):
        encode_message(_fwd(payload=b"short", payload_size=100))


def test_ack_view_mismatch_rejected():
    """The 24-byte ack record carries no view; FSR's invariant (acks are
    created in, and cleared with, the carrier's view) is enforced."""
    with pytest.raises(CodecError, match="view"):
        encode_message(_fwd(piggybacked=[_ack(view_id=99)]))
    with pytest.raises(CodecError, match="view"):
        encode_message(AckBatch(acks=[_ack(view_id=99)], view_id=3))


def test_segment_origin_mismatch_rejected():
    """The 12-byte segment record stores only the app local_seq; a
    foreign-origin app id would not survive the round trip."""
    with pytest.raises(CodecError, match="origin"):
        encode_message(_fwd(segment=(MessageId(42, 2), 0, 3)))


def test_unknown_kind_rejected():
    with pytest.raises(CodecError, match="unknown frame kind"):
        decode_message(b"\xff" + b"\x00" * 40)


def test_empty_body_rejected():
    with pytest.raises(CodecError, match="empty"):
        decode_message(b"")


def test_truncated_header_rejected():
    body = encode_message(_fwd())
    with pytest.raises(CodecError, match="truncated"):
        decode_message(body[:10])


def test_truncated_ack_region_rejected():
    # Empty payload: any cut lands in the header/ack region.
    body = encode_message(_fwd(payload=b"", payload_size=0))
    for cut in range(1, len(body)):
        with pytest.raises(CodecError):
            decode_message(body[:cut])


def test_trailing_bytes_after_ack_batch_rejected():
    body = encode_message(AckBatch(acks=[_ack()], view_id=3))
    with pytest.raises(CodecError, match="trailing"):
        decode_message(body + b"\x00")


def test_frame_length_of_short_buffer_is_none():
    assert frame_length(b"\x00\x00") is None


def test_frame_length_rejects_oversized_announcement():
    huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(CodecError, match="MAX_FRAME_BYTES"):
        frame_length(huge)


def test_decode_frame_rejects_incomplete_frame():
    frame = encode_frame(_fwd())
    with pytest.raises(CodecError, match="incomplete"):
        decode_frame(frame[:-1])


def test_unrepresentable_field_rejected():
    with pytest.raises(CodecError, match="unrepresentable"):
        encode_message(_fwd(view_id=2**40))


_GOLDEN_FWD = _fwd(
    payload=b"ab", payload_size=2, piggybacked=[_ack(), _ack(stable=False)],
    segment=(MessageId(1, 4), 2, 8),
)
_GOLDEN_SEQ = _seq(payload=b"cd", payload_size=2, stable=True, piggybacked=[_ack()])
_GOLDEN_ACKS = AckBatch(acks=[_ack(), _ack(stable=False)], view_id=3, watermark=2)

#: Whole frames (length prefix included), pinned: a codec change that
#: moves one byte of the ring wire fails here.
_GOLDEN_FRAMES = [
    (_GOLDEN_FWD,
     "0000005e01020002000000010000000000000009000000010000000300000000"
     "0000000400000004000000020000000800000002000000000000000500000000"
     "00000007000000010000000200000000000000050000000000000007000000006162"),
    (_GOLDEN_SEQ,
     "0000004f020200010000000100000000000000090000000100000003ffffffff"
     "ffffffff000000000000000c0100000004000000020000000800000002000000"
     "00000000050000000000000007000000016364"),
    (_GOLDEN_ACKS,
     "0000004003000002000000030000000000000002000000020000000000000005"
     "0000000000000007000000010000000200000000000000050000000000000007"
     "00000000"),
    (FrameBatch(messages=[_GOLDEN_SEQ, _GOLDEN_ACKS]),
     "0000009b040000020000004f0202000100000001000000000000000900000001"
     "00000003ffffffffffffffff000000000000000c010000000400000002000000"
     "0800000002000000000000000500000000000000070000000163640000004003"
     "0000020000000300000000000000020000000200000000000000050000000000"
     "00000700000001000000020000000000000005000000000000000700000000"),
    (Hello(node_id=7, channel=CHANNEL_CONTROL), "00000006400100000007"),
]


@pytest.mark.parametrize(
    "message,golden", _GOLDEN_FRAMES,
    ids=["fwd", "seq", "ack_batch", "batch", "hello"],
)
def test_frames_are_byte_identical_to_the_pinned_wire(message, golden):
    frame = bytes.fromhex(golden)
    assert encode_frame(message) == frame
    assert encode_message(message) == frame[LENGTH_PREFIX_BYTES:]
    # The transport's encoder, grown from a tiny buffer and reused.
    encoder = FrameEncoder(initial_capacity=16)
    assert encoder.encode_frame(message) == frame
    assert encoder.encode_frame(message) == frame
    assert decode_frame(frame) == (message, len(frame))


_CALLED = []


def _hostile(*args):
    _CALLED.append(args)
    return ("vsc", None)


class _Hostile:
    def __reduce__(self):
        return (_hostile, ("called",))


def test_control_frame_naming_a_foreign_callable_is_refused():
    """A control pickle may name only control-plane classes: one that
    names a function is refused before the function is looked up, so
    it is never called."""
    body = bytes([KIND_CONTROL]) + pickle.dumps(_Hostile())
    with pytest.raises(CodecError, match="_hostile"):
        decode_message(body)
    assert _CALLED == []


def _retained(seq):
    return RetainedMessage(
        MessageId(1, seq), 1, seq, b"p" * 3, 3, (MessageId(1, 2), 0, 2)
    )


def _fsr_state():
    return FSRFlushState(
        last_delivered=4, watermark=3, records={5: _retained(5)}, fresh=True
    )


_CONTROL_MESSAGES = [
    _Heartbeat(sender=2, echo=True, sent_at=1.5),
    vsc._FlushReq(epoch=3, coordinator=0, proposed=(0, 2)),
    vsc._FlushAck(
        epoch=3, sender=2, state=vsc.FlushState(_fsr_state(), 64)
    ),
    vsc._ViewInstall(
        epoch=3, coordinator=0, members=(0, 2),
        state=vsc.FlushState(
            MergedRecovery(
                records={5: _retained(5)}, next_sequence=6,
                orphaned={MessageId(2, 1)}, min_last_delivered=4,
                max_last_delivered=5,
            ),
            40,
        ),
    ),
    vsc._ViewInstall(epoch=4, coordinator=0, members=(0,), state=None),
    vsc._InstallAck(epoch=3, sender=2),
    vsc._ViewCommit(epoch=3),
    vsc._JoinReq(joiner=4),
    vsc._LeaveReq(leaver=1),
    vsc._RotateReq(requester=2),
    # Multiring's composite flush state: one FlushState per ring.
    vsc._FlushAck(
        epoch=5, sender=1,
        state=vsc.FlushState(
            {0: vsc.FlushState(_fsr_state(), 8),
             1: vsc.FlushState(_fsr_state(), 8)},
            16,
        ),
    ),
]


@pytest.mark.parametrize("inner", _CONTROL_MESSAGES)
def test_every_control_type_round_trips(inner):
    frame = ControlFrame(layer="vsc", inner=inner)
    assert decode_frame(encode_frame(frame))[0] == frame
