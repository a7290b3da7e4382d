"""Client-facing wire codec for the session service.

Mirrors the :mod:`repro.live.codec` idioms — 4-byte big-endian length
prefix, a hard frame-size cap, and :class:`~repro.errors.CodecError`
(and nothing else) on any malformed input — but carries JSON bodies:
client requests are low-rate relative to ring traffic, and a
self-describing body keeps the loadgen and external clients trivial.
Server and client both receive through :class:`FrameSlicer`: every
complete frame of a received chunk comes out in one call.

Request fields::

    client   str   session identity (unique per client session)
    seq      int   per-session sequence number, starting at 1
    first_unacked int  lowest seq the client has not seen acked
                       (drives response-cache pruning server-side)
    barrier  int   highest seq the client has seen acked (session
                   monotonic reads: a local read must reflect at
                   least this much of the client's own session)
    op       str   inner state-machine operation
    args     list  operation arguments
    ordered  bool  force the request through the total order even if
                   a local read would be allowed (testing/linearisable)
    trace    bool  request tracing: the server emits request-lifecycle
                   events for this request and carries the flag into
                   the session envelope (repro.obs.reqtrace)

Response fields::

    seq      int   echoes the request
    ok       bool  False iff the state machine rejected the command
    result   any   operation result (None on error)
    error    str|None  deterministic rejection message
    served   str   "ordered" | "local" | "cached"
    leader   int|None  current leader hint for client failover
    view_id  int|None  server's installed view
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

from repro.errors import CodecError

_LENGTH = struct.Struct("!I")

#: Bytes in the frame length prefix.
LENGTH_PREFIX_BYTES = 4

#: Hard cap on a request/response body; larger frames are rejected.
MAX_FRAME_BYTES = 1 << 20


@dataclass(frozen=True)
class Request:
    """One client session request."""

    client: str
    seq: int
    first_unacked: int
    barrier: int
    op: str
    args: Tuple[Any, ...] = ()
    ordered: bool = False
    trace: bool = False

    def to_dict(self) -> dict:
        body = {
            "client": self.client,
            "seq": self.seq,
            "first_unacked": self.first_unacked,
            "barrier": self.barrier,
            "op": self.op,
            "args": list(self.args),
            "ordered": self.ordered,
        }
        if self.trace:
            # Omitted when off so untraced requests stay byte-identical
            # to the pre-tracing wire format.
            body["trace"] = True
        return body

    @classmethod
    def from_dict(cls, body: Any) -> "Request":
        if not isinstance(body, dict):
            raise CodecError(f"request body must be an object, got {type(body).__name__}")
        try:
            client = body["client"]
            seq = body["seq"]
            first_unacked = body["first_unacked"]
            barrier = body["barrier"]
            op = body["op"]
            args = body["args"]
        except KeyError as exc:
            raise CodecError(f"request missing field {exc.args[0]!r}") from exc
        if not isinstance(client, str) or not client:
            raise CodecError(f"request client must be a non-empty str: {client!r}")
        for name, value in (("seq", seq), ("first_unacked", first_unacked), ("barrier", barrier)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise CodecError(f"request {name} must be an int: {value!r}")
        if seq < 1:
            raise CodecError(f"request seq must be >= 1: {seq}")
        if first_unacked < 1:
            raise CodecError(f"request first_unacked must be >= 1: {first_unacked}")
        if barrier < 0:
            raise CodecError(f"request barrier must be >= 0: {barrier}")
        if not isinstance(op, str):
            raise CodecError(f"request op must be a str: {op!r}")
        if not isinstance(args, list):
            raise CodecError(f"request args must be a list: {args!r}")
        ordered = body.get("ordered", False)
        if not isinstance(ordered, bool):
            raise CodecError(f"request ordered must be a bool: {ordered!r}")
        trace = body.get("trace", False)
        if not isinstance(trace, bool):
            raise CodecError(f"request trace must be a bool: {trace!r}")
        return cls(
            client=client,
            seq=seq,
            first_unacked=first_unacked,
            barrier=barrier,
            op=op,
            args=tuple(args),
            ordered=ordered,
            trace=trace,
        )


@dataclass(frozen=True)
class Response:
    """One server response, matched to its request by ``seq``."""

    seq: int
    ok: bool
    result: Any = None
    error: Optional[str] = None
    served: str = "ordered"
    leader: Optional[int] = None
    view_id: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ok": self.ok,
            "result": self.result,
            "error": self.error,
            "served": self.served,
            "leader": self.leader,
            "view_id": self.view_id,
        }

    @classmethod
    def from_dict(cls, body: Any) -> "Response":
        if not isinstance(body, dict):
            raise CodecError(f"response body must be an object, got {type(body).__name__}")
        try:
            seq = body["seq"]
            ok = body["ok"]
        except KeyError as exc:
            raise CodecError(f"response missing field {exc.args[0]!r}") from exc
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise CodecError(f"response seq must be an int: {seq!r}")
        if not isinstance(ok, bool):
            raise CodecError(f"response ok must be a bool: {ok!r}")
        served = body.get("served", "ordered")
        if served not in ("ordered", "local", "cached"):
            raise CodecError(f"response served must be ordered|local|cached: {served!r}")
        return cls(
            seq=seq,
            ok=ok,
            result=body.get("result"),
            error=body.get("error"),
            served=served,
            leader=body.get("leader"),
            view_id=body.get("view_id"),
        )


def encode_frame(body: dict) -> bytes:
    """Length-prefix a JSON body for the wire."""
    try:
        encoded = json.dumps(body, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"unencodable frame body: {exc}") from exc
    if len(encoded) > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame body of {len(encoded)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(encoded)) + encoded


def frame_length(buffer: bytes, start: int = 0) -> Optional[int]:
    """Body length announced by the prefix at ``start``, or None if short."""
    if len(buffer) - start < LENGTH_PREFIX_BYTES:
        return None
    (length,) = _LENGTH.unpack_from(buffer, start)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"announced frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}")
    return length


class FrameSlicer:
    """Frame bodies out of a byte stream that arrives in arbitrary chunks.

    :meth:`feed` takes what one ``data_received`` brought and yields the
    body of every frame the chunk completes, in order; the bytes of a
    partial frame wait for the next chunk.  Only bytes that arrived are
    held — a prefix announcing a 1 MB body allocates nothing — and an
    oversize prefix raises :class:`CodecError` once every body in front
    of it has been yielded.
    """

    __slots__ = ("_tail", "_need")

    def __init__(self) -> None:
        #: Bytes of the partial frame at the head of the stream.
        self._tail = bytearray()
        #: Bytes ``_tail`` must hold before a frame can complete.
        self._need = LENGTH_PREFIX_BYTES

    def feed(self, data: bytes) -> Iterator[bytes]:
        tail = self._tail
        if tail:
            tail += data
            if len(tail) < self._need:
                return
            data = bytes(tail)
            tail.clear()
        start, end = 0, len(data)
        while True:
            length = frame_length(data, start)
            if length is None:
                need = LENGTH_PREFIX_BYTES
                break
            need = LENGTH_PREFIX_BYTES + length
            if start + need > end:
                break
            yield data[start + LENGTH_PREFIX_BYTES:start + need]
            start += need
        if start < end:
            tail += memoryview(data)[start:]
            self._need = need


def decode_body(body: bytes) -> Any:
    """Decode a frame body (the bytes after the length prefix)."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"undecodable frame body: {exc}") from exc


def encode_request(request: Request) -> bytes:
    return encode_frame(request.to_dict())


def encode_response(response: Response) -> bytes:
    return encode_frame(response.to_dict())


def decode_request(body: bytes) -> Request:
    return Request.from_dict(decode_body(body))


def decode_response(body: bytes) -> Response:
    return Response.from_dict(decode_body(body))
