"""Tests for the serve wire protocol (length-prefixed JSON frames)."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.serve.wire import (
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    FrameSlicer,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_frame,
    encode_request,
    encode_response,
    frame_length,
)


def _strip(frame: bytes) -> bytes:
    assert frame_length(frame) == len(frame) - LENGTH_PREFIX_BYTES
    return frame[LENGTH_PREFIX_BYTES:]


def test_request_round_trip():
    request = Request(
        client="alice", seq=3, first_unacked=2, barrier=2,
        op="put", args=("k", "v"), ordered=True,
    )
    assert decode_request(_strip(encode_request(request))) == request


def test_response_round_trip():
    response = Response(
        seq=3, ok=True, result=[1, "x"], served="local", leader=0, view_id=2,
    )
    assert decode_response(_strip(encode_response(response))) == response
    error = Response(seq=4, ok=False, error="boom", served="cached")
    assert decode_response(_strip(encode_response(error))) == error


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("client"),
    lambda d: d.pop("seq"),
    lambda d: d.update(client=""),
    lambda d: d.update(client=7),
    lambda d: d.update(seq=0),
    lambda d: d.update(seq=True),
    lambda d: d.update(seq="3"),
    lambda d: d.update(first_unacked=-1),
    lambda d: d.update(barrier=None),
    lambda d: d.update(op=9),
    lambda d: d.update(args="not-a-list"),
    lambda d: d.update(ordered="yes"),
])
def test_malformed_request_bodies_rejected(mutate):
    body = Request(
        client="c", seq=1, first_unacked=1, barrier=0, op="get", args=("k",)
    ).to_dict()
    mutate(body)
    with pytest.raises(CodecError):
        decode_request(json.dumps(body).encode())


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(error=5),
    lambda d: d.update(error=["x"]),
    lambda d: d.update(error=True),
    lambda d: d.update(leader="x"),
    lambda d: d.update(leader=True),
    lambda d: d.update(leader=1.5),
    lambda d: d.update(view_id=[1]),
    lambda d: d.update(view_id=False),
    lambda d: d.update(view_id="2"),
])
def test_malformed_response_bodies_rejected(mutate):
    # Each of these was once accepted; a non-str ``error`` then made the
    # client's ``startswith`` raise AttributeError inside data_received.
    body = Response(seq=1, ok=False, error="boom", leader=0, view_id=1).to_dict()
    mutate(body)
    with pytest.raises(CodecError):
        decode_response(json.dumps(body).encode())


def test_non_dict_and_non_json_bodies_rejected():
    with pytest.raises(CodecError):
        decode_request(b"[1, 2]")
    with pytest.raises(CodecError):
        decode_request(b"\xff\xfe")
    with pytest.raises(CodecError):
        decode_response(b"null")


def test_unencodable_and_oversized_frames_rejected():
    with pytest.raises(CodecError):
        encode_frame({"x": object()})
    with pytest.raises(CodecError):
        encode_frame({"x": "y" * (MAX_FRAME_BYTES + 1)})
    # The templated encoders refuse what the dict encoder refuses.
    for bad in (
        Request(client=7, seq=1, first_unacked=1, barrier=0, op="get"),
        Request(client="c", seq=1, first_unacked=1, barrier=0, op="put",
                args=(object(),)),
        Request(client="c", seq="1", first_unacked=1, barrier=0, op="get"),
        Request(client="c", seq=1, first_unacked=1, barrier=0, op="put",
                args=("y" * MAX_FRAME_BYTES,)),
    ):
        with pytest.raises(CodecError):
            encode_request(bad)
    for bad in (
        Response(seq=1, ok=True, result={1j}),
        Response(seq=1, ok=False, error=5),
        Response(seq=1, ok=True, result="y" * MAX_FRAME_BYTES),
    ):
        with pytest.raises(CodecError):
            encode_response(bad)


def _slice(stream: bytes, chunk_sizes=()) -> list:
    """Feed ``stream`` through one slicer in chunks of the given sizes
    (then whole); returns every body it yielded."""
    slicer = FrameSlicer()
    bodies, taken, sizes = [], 0, iter(chunk_sizes)
    while taken < len(stream):
        count = next(sizes, len(stream))
        bodies.extend(slicer.feed(stream[taken:taken + count]))
        taken += count
    return bodies


def test_slicer_streams_frames_in_any_chunking():
    frame_a = encode_frame({"a": 1})
    frame_b = encode_frame({"b": 2})
    stream = frame_a + frame_b
    for chunks in ((), [1] * len(stream), [len(frame_a) - 1, 3], [5, 100]):
        bodies = _slice(stream, chunks)
        assert [json.loads(body) for body in bodies] == [{"a": 1}, {"b": 2}]
        assert all(type(body) is bytes for body in bodies)


def test_slicer_rejects_oversize_and_holds_truncation():
    # Truncated mid-frame: the partial frame is held, nothing comes out.
    frame = encode_frame({"a": 1})
    slicer = FrameSlicer()
    assert list(slicer.feed(frame[:-2])) == []
    assert len(slicer._tail) == len(frame) - 2
    assert [json.loads(b) for b in slicer.feed(frame[-2:])] == [{"a": 1}]
    assert len(slicer._tail) == 0
    # Oversized length prefix: refused before buffering the body, and
    # only after the frames in front of it came out.
    bodies = FrameSlicer().feed(frame + struct.pack("!I", MAX_FRAME_BYTES + 1))
    assert json.loads(next(bodies)) == {"a": 1}
    with pytest.raises(CodecError):
        next(bodies)


#: Frames as the wire has always carried them (pinned byte for byte:
#: only their grouping into socket writes may change).
_PINNED = [
    (
        Request(client="bench0-0", seq=12, first_unacked=9, barrier=11,
                op="put", args=("k17", "v" * 8)),
        b'\x00\x00\x00r{"client":"bench0-0","seq":12,"first_unacked":9,'
        b'"barrier":11,"op":"put","args":["k17","vvvvvvvv"],"ordered":false}',
    ),
    (
        Request(client="c", seq=1, first_unacked=1, barrier=0, op="get",
                args=("k",), ordered=True, trace=True),
        b'\x00\x00\x00h{"client":"c","seq":1,"first_unacked":1,"barrier":0,'
        b'"op":"get","args":["k"],"ordered":true,"trace":true}',
    ),
    (
        Response(seq=12, ok=True, result=None, served="ordered", leader=0,
                 view_id=0),
        b'\x00\x00\x00Y{"seq":12,"ok":true,"result":null,"error":null,'
        b'"served":"ordered","leader":0,"view_id":0}',
    ),
    (
        Response(seq=3, ok=False, error="unavailable: x", served="ordered",
                 view_id=2),
        b'\x00\x00\x00h{"seq":3,"ok":false,"result":null,'
        b'"error":"unavailable: x","served":"ordered","leader":null,"view_id":2}',
    ),
]


def test_frames_are_byte_identical_to_the_pinned_wire():
    for obj, frame in _PINNED:
        encode = encode_request if isinstance(obj, Request) else encode_response
        assert encode(obj) == frame


# -- the templated encoders against the dict encoder ------------------------
#: Text with the characters a template could get wrong: quotes,
#: backslashes, control characters, ``%`` and non-ASCII (surrogates too).
_text = st.lists(st.one_of(
    st.sampled_from(['"', "\\", "%", "%s", "%d", "\x00", "\n", "\x1f", "\x7f",
                     "\u00e9", "\u20ac", "\U0001f600", "\ud800"]),
    st.characters(blacklist_categories=()),
), max_size=8).map("".join)
_uint = st.integers(min_value=0, max_value=2 ** 63)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 63), 2 ** 63)
    | st.floats(allow_nan=False) | _text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)
_requests = st.builds(
    Request,
    client=_text.filter(bool),
    seq=_uint.filter(bool),
    first_unacked=_uint.filter(bool),
    barrier=_uint,
    op=_text,
    args=st.lists(_json, max_size=4).map(tuple),
    ordered=st.booleans(),
    trace=st.booleans(),
)
_responses = st.builds(
    Response,
    seq=_uint,
    ok=st.booleans(),
    result=_json,
    error=st.none() | _text,
    served=st.sampled_from(["ordered", "local", "cached"]),
    leader=st.none() | _uint,
    view_id=st.none() | _uint,
)


@given(request=_requests)
@settings(max_examples=300, deadline=None)
def test_request_template_is_the_dict_encoding_byte_for_byte(request):
    frame = encode_request(request)
    assert frame == encode_frame(request.to_dict())
    decoded = decode_request(_strip(frame))
    assert type(decoded) is Request and decoded == request


@given(response=_responses)
@settings(max_examples=300, deadline=None)
def test_response_template_is_the_dict_encoding_byte_for_byte(response):
    frame = encode_response(response)
    assert frame == encode_frame(response.to_dict())
    decoded = decode_response(_strip(frame))
    assert type(decoded) is Response and decoded == response
