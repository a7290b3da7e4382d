"""Binary wire codec for FSR messages (see PROTOCOL.md appendix).

Every frame on a live ring connection is a 4-byte big-endian length
prefix followed by a message body.  Body sizes match the abstract byte
accounting of ``wire_size_bytes()`` *exactly* — the simulator charges
the network for precisely the bytes this codec puts on the wire, which
is what makes simulated and measured throughput comparable:

========================  =======================================  =====
part                      struct layout (network byte order)       bytes
========================  =======================================  =====
data header               kind B · flags B · n_acks H · mid.origin
                          i · mid.local_seq q · origin i · view i
                          · watermark q                             32
seq extra (SeqData only)  sequence q · stable B                      9
segment meta (optional)   app local_seq I · index I · count I        12
ack record (each)         mid.origin i · mid.local_seq q ·
                          sequence q · flags i (bit0 = stable)       24
ack-batch header          kind B · flags B · n_acks H · view i ·
                          watermark q                                16
========================  =======================================  =====

Two representational invariants are *enforced* at encode time rather
than widened on the wire, because the protocol already guarantees them
(and the byte budget counts on it):

* a piggy-backed ack's ``view_id`` equals its carrier's ``view_id`` —
  FSR creates acks in the current view and clears the ack queue on view
  change, so the 24-byte ack record carries no view field;
* a segment's application-level message id has the same ``origin`` as
  the segment message itself — ``FSRProcess.broadcast`` constructs
  segments that way, so the 12-byte segment record stores only the
  application ``local_seq``.

Payloads must be ``bytes``/``bytearray``/``memoryview`` with length
equal to ``payload_size``; the live runtime never ships placeholder
payload objects.  All malformed input — encode or decode — raises
:class:`~repro.errors.CodecError` and nothing else.

Batch frames (PROTOCOL.md appendix C)
-------------------------------------

Under load the transport coalesces several queued frames into one
*batch frame* so the whole flush costs one syscall and one ``drain()``:

========================  =======================================  =====
part                      struct layout (network byte order)       bytes
========================  =======================================  =====
batch header              kind B (=4) · flags B (=0) · count H       4
entry (each)              body length I · frame body                 4+len
========================  =======================================  =====

Entries reuse the exact per-message encodings above (a batch entry is
byte-for-byte an ordinary length-prefixed frame), so batching adds 8
bytes per flush over the plain stream and *nothing* per message.  Only
ring data (``FwdData``/``SeqData``/``AckBatch``) may ride in a batch;
``Hello``/control/nested batches are rejected on both sides.  Decode
slices entries out of the received body with ``memoryview`` — no
per-entry copy; the single copy per payload happens directly from the
receive buffer into its final ``bytes`` object.

The hot path avoids the allocation-heavy ``b"".join`` encode:
:class:`FrameEncoder` packs cached :class:`struct.Struct` headers
straight into one reusable ``bytearray`` per transport (the EpTO
exemplar's idiom — prepacked structs over attribute-heavy temporaries),
and is guaranteed byte-identical to :func:`encode_frame`.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple, Union

from repro.core.fsr.messages import (
    ACK_BATCH_HEADER_BYTES,
    ACK_BYTES,
    DATA_HEADER_BYTES,
    SEQ_EXTRA_BYTES,
    AckBatch,
    AckMsg,
    FwdData,
    SeqData,
)
from repro.errors import CodecError
from repro.types import MessageId, ProcessId

# ---------------------------------------------------------------------------
# Frame kinds
# ---------------------------------------------------------------------------
KIND_FWD_DATA = 1
KIND_SEQ_DATA = 2
KIND_ACK_BATCH = 3
#: Multi-message coalesced frame (see module docstring / appendix C).
KIND_BATCH = 4
#: Transport-level greeting: first frame on every connection.
KIND_HELLO = 0x40
#: Control-plane envelope (membership / failure-detector traffic).
KIND_CONTROL = 0x41

#: ``Hello.channel`` values: what kind of traffic the connection carries.
CHANNEL_RING = 0
CHANNEL_CONTROL = 1

#: Flag bits in the data-header ``flags`` field.
FLAG_STABLE = 0x01
FLAG_SEGMENT = 0x02

#: Length prefix preceding every body on the wire.
LENGTH_PREFIX_BYTES = 4
#: Upper bound on one body; protects readers from corrupt prefixes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct("!I")
_DATA_HEADER = struct.Struct("!BBHiqiiq")  # 32 bytes
_SEQ_EXTRA = struct.Struct("!qB")  # 9 bytes
_SEGMENT = struct.Struct("!III")  # 12 bytes
_ACK = struct.Struct("!iqqi")  # 24 bytes
_ACK_BATCH_HEADER = struct.Struct("!BBHiq")  # 16 bytes
_HELLO = struct.Struct("!BBi")  # kind + channel + node id
_CONTROL_KIND = struct.Struct("!B")  # kind; pickled (layer, inner) follows
_BATCH_HEADER = struct.Struct("!BBH")  # 4 bytes: kind + flags + entry count

_SEGMENT_BYTES = _SEGMENT.size

#: Framing bytes a batch frame adds over its entries' plain frames.
BATCH_HEADER_BYTES = _BATCH_HEADER.size

assert _DATA_HEADER.size == DATA_HEADER_BYTES
assert _SEQ_EXTRA.size == SEQ_EXTRA_BYTES
assert _ACK.size == ACK_BYTES
assert _ACK_BATCH_HEADER.size == ACK_BATCH_HEADER_BYTES


@dataclass(frozen=True)
class Hello:
    """Transport greeting identifying the connecting node.

    ``channel`` declares what the connection carries: ring data
    (:data:`CHANNEL_RING`, the default) or control-plane traffic
    (:data:`CHANNEL_CONTROL`).  The receiver uses it to keep the ring
    barrier ("my predecessor greeted me") from being satisfied by a
    mere control connection.
    """

    node_id: ProcessId
    channel: int = CHANNEL_RING


@dataclass(frozen=True)
class ControlFrame:
    """Layer-tagged control-plane message (membership, heartbeats).

    Mirrors the simulator's :class:`repro.net.dispatch.LayerDemux`
    envelope: ``layer`` routes to the right handler ("vsc", "fd"),
    ``inner`` is the layer's own message object.  Control messages
    carry arbitrary protocol dataclasses (flush states, recovery
    records), so the body is pickled — acceptable on the trusted
    localhost harness the live runtime targets, and every pickle
    failure is still surfaced as :class:`CodecError` only.
    """

    layer: str
    inner: Any


@dataclass
class FrameBatch:
    """Several ring-data messages coalesced into one wire frame.

    The transport builds these implicitly (it concatenates already
    encoded frames under one batch header); this dataclass exists so the
    codec can round-trip and property-test the format symmetrically.
    Only ring data may ride in a batch — greetings, control envelopes,
    and nested batches are rejected at encode *and* decode time.
    """

    messages: List[Union[FwdData, SeqData, AckBatch]] = field(
        default_factory=list
    )


#: Everything the codec can put in a frame body.
WireMessage = Union[FwdData, SeqData, AckBatch, Hello, ControlFrame, FrameBatch]

#: Message types allowed inside a :class:`FrameBatch`.
_BATCHABLE = (FwdData, SeqData, AckBatch)


def _pack(fmt: struct.Struct, *values: object) -> bytes:
    try:
        return fmt.pack(*values)
    except struct.error as exc:
        raise CodecError(f"unrepresentable field value: {exc}") from exc


def _payload_bytes(message: Union[FwdData, SeqData]) -> bytes:
    payload = message.payload
    if isinstance(payload, (bytearray, memoryview)):
        payload = bytes(payload)
    if not isinstance(payload, bytes):
        raise CodecError(
            f"live payloads must be bytes, got {type(message.payload).__name__}"
        )
    if len(payload) != message.payload_size:
        raise CodecError(
            f"payload_size={message.payload_size} but payload has "
            f"{len(payload)} bytes"
        )
    return payload


def _encode_acks(acks: List[AckMsg], container_view: int) -> bytes:
    parts = []
    for ack in acks:
        if ack.view_id != container_view:
            raise CodecError(
                f"ack {ack.message_id} has view {ack.view_id}, carrier has "
                f"view {container_view}; the 24-byte ack record carries no "
                "view field"
            )
        flags = FLAG_STABLE if ack.stable else 0
        parts.append(
            _pack(
                _ACK,
                ack.message_id.origin,
                ack.message_id.local_seq,
                ack.sequence,
                flags,
            )
        )
    return b"".join(parts)


def _encode_segment(
    segment: Optional[Tuple[MessageId, int, int]], origin: ProcessId
) -> bytes:
    if segment is None:
        return b""
    app_id, index, count = segment
    if app_id.origin != origin:
        raise CodecError(
            f"segment app id {app_id} has origin {app_id.origin}, message "
            f"has origin {origin}; the 12-byte segment record stores only "
            "the application local_seq"
        )
    return _pack(_SEGMENT, app_id.local_seq, index, count)


def encode_message(message: WireMessage) -> bytes:
    """Serialize ``message`` to a frame body (no length prefix)."""
    if isinstance(message, Hello):
        return _pack(_HELLO, KIND_HELLO, message.channel, message.node_id)

    if isinstance(message, ControlFrame):
        if not isinstance(message.layer, str):
            raise CodecError(
                f"control layer must be str, got {type(message.layer).__name__}"
            )
        try:
            body = pickle.dumps((message.layer, message.inner))
        except Exception as exc:
            raise CodecError(f"unpicklable control message: {exc}") from exc
        return _CONTROL_KIND.pack(KIND_CONTROL) + body

    if isinstance(message, FrameBatch):
        return batch_header(len(message.messages)) + b"".join(
            encode_frame(_require_batchable(inner))
            for inner in message.messages
        )

    if isinstance(message, AckBatch):
        header = _pack(
            _ACK_BATCH_HEADER,
            KIND_ACK_BATCH,
            0,
            len(message.acks),
            message.view_id,
            message.watermark,
        )
        return header + _encode_acks(message.acks, message.view_id)

    if isinstance(message, (FwdData, SeqData)):
        is_seq = isinstance(message, SeqData)
        flags = 0
        if message.segment is not None:
            flags |= FLAG_SEGMENT
        header = _pack(
            _DATA_HEADER,
            KIND_SEQ_DATA if is_seq else KIND_FWD_DATA,
            flags,
            len(message.piggybacked),
            message.message_id.origin,
            message.message_id.local_seq,
            message.origin,
            message.view_id,
            message.watermark,
        )
        parts = [header]
        if is_seq:
            parts.append(
                _pack(_SEQ_EXTRA, message.sequence, 1 if message.stable else 0)
            )
        parts.append(_encode_segment(message.segment, message.origin))
        parts.append(_encode_acks(message.piggybacked, message.view_id))
        parts.append(_payload_bytes(message))
        return b"".join(parts)

    raise CodecError(f"cannot encode {type(message).__name__}")


def _require_batchable(message: object) -> Union[FwdData, SeqData, AckBatch]:
    if not isinstance(message, _BATCHABLE):
        raise CodecError(
            f"batch entries must be ring data, got {type(message).__name__}"
        )
    return message


def batch_header(count: int) -> bytes:
    """Batch frame header for ``count`` entries (no outer length prefix)."""
    if not 0 <= count <= 0xFFFF:
        raise CodecError(f"batch entry count {count} out of range")
    return _BATCH_HEADER.pack(KIND_BATCH, 0, count)


def encode_frame(message: WireMessage) -> bytes:
    """Serialize ``message`` to a complete length-prefixed frame."""
    body = encode_message(message)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame body of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(body)) + body


def batch_frame_parts(frames: List[bytes]) -> List[bytes]:
    """Wire parts of a batch frame wrapping already-encoded frames.

    ``frames`` are complete length-prefixed frames exactly as
    :func:`encode_frame` produced them; they become the batch entries
    byte-for-byte, so the transport never re-encodes queued messages.
    The returned list is ready for ``StreamWriter.writelines`` — one
    prefix+header part followed by the original frame objects (no
    concatenation copy of the payloads).
    """
    body_len = BATCH_HEADER_BYTES + sum(len(f) for f in frames)
    if body_len > MAX_FRAME_BYTES:
        raise CodecError(
            f"batch body of {body_len} bytes exceeds MAX_FRAME_BYTES"
        )
    return [_LENGTH.pack(body_len) + batch_header(len(frames)), *frames]


class FrameEncoder:
    """Allocation-light frame encoder for the transport hot path.

    Packs the cached :class:`struct.Struct` headers straight into one
    reusable ``bytearray`` per transport instead of joining per-part
    ``bytes`` temporaries (the EpTO exemplar's idiom).  Output is
    byte-identical to :func:`encode_frame` — a property test enforces
    it — and every validation the slow path performs is preserved.
    Non-ring messages (greetings, control, explicit batches) fall back
    to the plain encoder; they are off the hot path by construction.
    """

    def __init__(self, initial_capacity: int = 64 * 1024) -> None:
        self._buf = bytearray(max(initial_capacity, 256))

    def _reserve(self, size: int) -> bytearray:
        if len(self._buf) < size:
            self._buf = bytearray(max(size, 2 * len(self._buf)))
        return self._buf

    def encode_frame(self, message: WireMessage) -> bytes:
        """Length-prefixed frame for ``message``; see :func:`encode_frame`."""
        if isinstance(message, (FwdData, SeqData)):
            return self._encode_data(message)
        if isinstance(message, AckBatch):
            return self._encode_ack_batch(message)
        return encode_frame(message)

    def _pack_acks(
        self,
        buf: bytearray,
        offset: int,
        acks: List[AckMsg],
        container_view: int,
    ) -> int:
        for ack in acks:
            if ack.view_id != container_view:
                raise CodecError(
                    f"ack {ack.message_id} has view {ack.view_id}, carrier "
                    f"has view {container_view}; the 24-byte ack record "
                    "carries no view field"
                )
            _ACK.pack_into(
                buf,
                offset,
                ack.message_id.origin,
                ack.message_id.local_seq,
                ack.sequence,
                FLAG_STABLE if ack.stable else 0,
            )
            offset += ACK_BYTES
        return offset

    def _encode_data(self, message: Union[FwdData, SeqData]) -> bytes:
        is_seq = isinstance(message, SeqData)
        payload = _payload_bytes(message)
        acks = message.piggybacked
        segment = message.segment
        body_len = (
            DATA_HEADER_BYTES
            + (SEQ_EXTRA_BYTES if is_seq else 0)
            + (_SEGMENT_BYTES if segment is not None else 0)
            + ACK_BYTES * len(acks)
            + len(payload)
        )
        if body_len > MAX_FRAME_BYTES:
            raise CodecError(
                f"frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
            )
        buf = self._reserve(LENGTH_PREFIX_BYTES + body_len - len(payload))
        try:
            _LENGTH.pack_into(buf, 0, body_len)
            _DATA_HEADER.pack_into(
                buf,
                LENGTH_PREFIX_BYTES,
                KIND_SEQ_DATA if is_seq else KIND_FWD_DATA,
                FLAG_SEGMENT if segment is not None else 0,
                len(acks),
                message.message_id.origin,
                message.message_id.local_seq,
                message.origin,
                message.view_id,
                message.watermark,
            )
            offset = LENGTH_PREFIX_BYTES + DATA_HEADER_BYTES
            if is_seq:
                _SEQ_EXTRA.pack_into(
                    buf, offset, message.sequence, 1 if message.stable else 0
                )
                offset += SEQ_EXTRA_BYTES
            if segment is not None:
                app_id, index, count = segment
                if app_id.origin != message.origin:
                    raise CodecError(
                        f"segment app id {app_id} has origin {app_id.origin},"
                        f" message has origin {message.origin}; the 12-byte "
                        "segment record stores only the application local_seq"
                    )
                _SEGMENT.pack_into(buf, offset, app_id.local_seq, index, count)
                offset += _SEGMENT_BYTES
            offset = self._pack_acks(buf, offset, acks, message.view_id)
        except struct.error as exc:
            raise CodecError(f"unrepresentable field value: {exc}") from exc
        # Headers are packed in place; the payload is copied exactly once,
        # by the concatenation that builds the outgoing frame.
        return bytes(memoryview(buf)[:offset]) + payload

    def _encode_ack_batch(self, message: AckBatch) -> bytes:
        acks = message.acks
        body_len = ACK_BATCH_HEADER_BYTES + ACK_BYTES * len(acks)
        if body_len > MAX_FRAME_BYTES:
            raise CodecError(
                f"frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
            )
        buf = self._reserve(LENGTH_PREFIX_BYTES + body_len)
        try:
            _LENGTH.pack_into(buf, 0, body_len)
            _ACK_BATCH_HEADER.pack_into(
                buf,
                LENGTH_PREFIX_BYTES,
                KIND_ACK_BATCH,
                0,
                len(acks),
                message.view_id,
                message.watermark,
            )
            offset = self._pack_acks(
                buf,
                LENGTH_PREFIX_BYTES + ACK_BATCH_HEADER_BYTES,
                acks,
                message.view_id,
            )
        except struct.error as exc:
            raise CodecError(f"unrepresentable field value: {exc}") from exc
        return bytes(memoryview(buf)[:offset])


def _truncated(what: str, needed: int, total: int) -> CodecError:
    return CodecError(
        f"truncated frame: {what} needs {needed} bytes, body has {total}"
    )


def _require_exact(what: str, needed: int, total: int) -> None:
    """A body whose length its header fixes is neither cut short nor
    followed by anything."""
    if total < needed:
        raise _truncated(what, needed, total)
    if total > needed:
        raise CodecError(f"{total - needed} trailing bytes after frame")


def _ack_records(
    body: Union[bytes, memoryview], offset: int, count: int, view_id: int
) -> List[AckMsg]:
    """The ``count`` ack records at ``body[offset:]``; the caller has
    checked that the body holds them."""
    acks: List[AckMsg] = []
    for origin, local_seq, sequence, flags in _ACK.iter_unpack(
        body[offset:offset + ACK_BYTES * count]
    ):
        if flags & ~FLAG_STABLE:
            raise CodecError(f"unknown ack flags {flags:#x}")
        acks.append(
            AckMsg(
                MessageId(origin, local_seq), sequence, flags == FLAG_STABLE,
                view_id,
            )
        )
    return acks


def _decode_ack_batch(body: Union[bytes, memoryview]) -> AckBatch:
    total = len(body)
    if total < ACK_BATCH_HEADER_BYTES:
        raise _truncated("ack-batch header", ACK_BATCH_HEADER_BYTES, total)
    _, flags, n_acks, view_id, watermark = _ACK_BATCH_HEADER.unpack_from(body, 0)
    if flags != 0:
        raise CodecError(f"unknown ack-batch flags {flags:#x}")
    _require_exact(
        "ack batch", ACK_BATCH_HEADER_BYTES + ACK_BYTES * n_acks, total
    )
    return AckBatch(
        _ack_records(body, ACK_BATCH_HEADER_BYTES, n_acks, view_id),
        view_id,
        watermark,
    )


def _decode_data(
    body: Union[bytes, memoryview], kind: int
) -> Union[FwdData, SeqData]:
    """Decode a ``FwdData``/``SeqData`` body at explicit offsets.

    One bound check covers everything before the payload: the header
    says how long that part is, and the payload is whatever follows.
    """
    total = len(body)
    if total < DATA_HEADER_BYTES:
        raise _truncated("data header", DATA_HEADER_BYTES, total)
    (
        _,
        flags,
        n_acks,
        mid_origin,
        mid_local_seq,
        origin,
        view_id,
        watermark,
    ) = _DATA_HEADER.unpack_from(body, 0)
    if flags & ~FLAG_SEGMENT:
        raise CodecError(f"unknown data-header flags {flags:#x}")
    is_seq = kind == KIND_SEQ_DATA
    has_segment = flags == FLAG_SEGMENT
    acks_at = (
        DATA_HEADER_BYTES
        + (SEQ_EXTRA_BYTES if is_seq else 0)
        + (_SEGMENT_BYTES if has_segment else 0)
    )
    payload_at = acks_at + ACK_BYTES * n_acks
    if payload_at > total:
        raise _truncated(f"header and {n_acks} ack records", payload_at, total)
    segment = None
    if has_segment:
        app_local_seq, index, count = _SEGMENT.unpack_from(
            body, acks_at - _SEGMENT_BYTES
        )
        segment = (MessageId(origin, app_local_seq), index, count)
    acks = _ack_records(body, acks_at, n_acks, view_id) if n_acks else []
    # The one copy per payload: ``body`` is a memoryview into the
    # connection's receive buffer (or a batch entry's slice of it), which
    # the next recv_into overwrites — this is what detaches the payload.
    payload = body[payload_at:]
    if not isinstance(payload, bytes):
        payload = bytes(payload)
    message_id = MessageId(mid_origin, mid_local_seq)
    # Positional, in field order (see repro.core.fsr.messages).
    if not is_seq:
        return FwdData(
            message_id, origin, payload, len(payload), view_id, watermark,
            acks, segment,
        )
    sequence, stable_byte = _SEQ_EXTRA.unpack_from(body, DATA_HEADER_BYTES)
    if stable_byte > 1:
        raise CodecError(f"non-boolean stable byte {stable_byte:#x}")
    return SeqData(
        message_id, origin, payload, len(payload), sequence, stable_byte == 1,
        view_id, watermark, acks, segment,
    )


def decode_batch_entries(
    body: Union[bytes, memoryview]
) -> List[Union[FwdData, SeqData, AckBatch]]:
    """Decode a batch frame body into its messages (zero-copy slicing).

    ``body`` is the whole frame body including the batch header.  Each
    entry body is sliced out of a single ``memoryview`` — no per-entry
    copy — and decoded with the ordinary per-message decoder.
    """
    view = body if isinstance(body, memoryview) else memoryview(body)
    total = len(view)
    if total < _BATCH_HEADER.size:
        raise CodecError(
            f"truncated batch header: {total} bytes, need {_BATCH_HEADER.size}"
        )
    _, flags, count = _BATCH_HEADER.unpack_from(view, 0)
    if flags != 0:
        raise CodecError(f"unknown batch flags {flags:#x}")
    offset = _BATCH_HEADER.size
    messages: List[Union[FwdData, SeqData, AckBatch]] = []
    for index in range(count):
        if offset + LENGTH_PREFIX_BYTES > total:
            raise CodecError(
                f"truncated batch: entry {index} length prefix at offset "
                f"{offset}, body has {total}"
            )
        (entry_len,) = _LENGTH.unpack_from(view, offset)
        offset += LENGTH_PREFIX_BYTES
        if entry_len > MAX_FRAME_BYTES:
            raise CodecError(
                f"batch entry {index} announces {entry_len} bytes, exceeds "
                "MAX_FRAME_BYTES"
            )
        end = offset + entry_len
        if end > total:
            raise CodecError(
                f"truncated batch: entry {index} needs {entry_len} bytes at "
                f"offset {offset}, body has {total}"
            )
        # Reject nesting *before* recursing so adversarial input cannot
        # stack batch-in-batch decodes MAX_FRAME_BYTES/8 levels deep.
        if entry_len and view[offset] == KIND_BATCH:
            raise CodecError("nested batch frames are not allowed")
        messages.append(_require_batchable(decode_message(view[offset:end])))
        offset = end
    if offset != total:
        raise CodecError(f"{total - offset} trailing bytes after batch")
    return messages


def decode_message(body: Union[bytes, memoryview]) -> WireMessage:
    """Parse one frame body back into a message.

    Raises :class:`CodecError` on truncation, trailing bytes, or an
    unknown kind byte — never anything else.
    """
    if not body:
        raise CodecError("empty frame body")
    kind = body[0]

    if kind == KIND_FWD_DATA or kind == KIND_SEQ_DATA:
        return _decode_data(body, kind)

    if kind == KIND_ACK_BATCH:
        return _decode_ack_batch(body)

    if kind == KIND_BATCH:
        return FrameBatch(messages=decode_batch_entries(body))

    if kind == KIND_HELLO:
        _require_exact("hello", _HELLO.size, len(body))
        _, channel, node_id = _HELLO.unpack_from(body, 0)
        if channel not in (CHANNEL_RING, CHANNEL_CONTROL):
            raise CodecError(f"unknown hello channel {channel}")
        return Hello(node_id=node_id, channel=channel)

    if kind == KIND_CONTROL:
        try:
            payload = pickle.loads(body[_CONTROL_KIND.size:])
        except Exception as exc:
            raise CodecError(f"malformed control frame: {exc}") from exc
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or not isinstance(payload[0], str)
        ):
            raise CodecError(
                f"control frame must carry a (layer, inner) pair, got "
                f"{type(payload).__name__}"
            )
        layer, inner = payload
        return ControlFrame(layer=layer, inner=inner)

    raise CodecError(f"unknown frame kind {kind:#x}")


def decode_frame(buffer: bytes) -> Tuple[WireMessage, int]:
    """Parse one complete frame from the head of ``buffer``.

    Returns ``(message, consumed_bytes)``.  Raises :class:`CodecError`
    if the buffer does not hold a complete, well-formed frame.  Stream
    transports that accumulate partial reads should use
    :func:`frame_length` first; this helper is for whole-frame buffers
    (tests, datagram-style carriers).
    """
    body_len = frame_length(buffer)
    if body_len is None or len(buffer) < LENGTH_PREFIX_BYTES + body_len:
        raise CodecError("incomplete frame")
    body = buffer[LENGTH_PREFIX_BYTES:LENGTH_PREFIX_BYTES + body_len]
    return decode_message(body), LENGTH_PREFIX_BYTES + body_len


def frame_length(buffer: bytes) -> Optional[int]:
    """Body length announced by the prefix, or ``None`` if not yet read.

    Raises :class:`CodecError` if the announced length exceeds
    :data:`MAX_FRAME_BYTES` (corrupt stream).
    """
    if len(buffer) < LENGTH_PREFIX_BYTES:
        return None
    (body_len,) = _LENGTH.unpack_from(buffer, 0)
    if body_len > MAX_FRAME_BYTES:
        raise CodecError(
            f"announced frame body of {body_len} bytes exceeds MAX_FRAME_BYTES"
        )
    return body_len
