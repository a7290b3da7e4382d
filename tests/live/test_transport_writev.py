"""Writer tests: a turn's ring frames leave in one scatter-gather write.

``_OutboundConnection.write`` hands a write's parts — packed headers and
the payload objects themselves — to ``os.writev`` on the connection's
socket while the transport holds no unsent bytes, and joins only what
the kernel did not take into ``transport.write``.  The claims:

* whatever the kernel takes per call (all, nothing — ``EAGAIN`` — or a
  split in the middle of a part), and however many parts a write has
  (more than ``IOV_MAX`` included), the peer reads exactly the parts
  joined, in order with the writes after it; a transport holding unsent
  bytes is never written past;
* a closing transport is not written: the frames stay queued for the
  next connection;
* ``EPIPE`` leaves the write to ``transport.write``, which meets the
  dead peer too and loses the connection the way it always did;
* the payload object handed to ``RingTransport.send`` is the one
  ``os.writev`` gets — no copy of it on the way out — batched or not,
  and the bytes are the golden frames.
"""

import asyncio
import os
import socket
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import BatchingConfig
from repro.core.fsr.messages import FwdData
from repro.live import transport as transport_module
from repro.live.codec import Hello, batch_frame_parts, encode_frame
from repro.types import MessageId
from tests.live.test_transport_send import _Sender

IOV_MAX = transport_module._IOV_MAX
FD = 99  # never a real descriptor: os.writev is replaced


class _Kernel:
    """The socket under a connection: ``writev`` takes as many bytes as
    it is told to, and ``wire`` is what the peer reads, in order."""

    def __init__(self, accepted=()):
        self.accepted = iter(accepted)
        self.wire = bytearray()
        self.calls = []
        self.transport = None

    def writev(self, fd, buffers):
        assert fd == FD
        buffers = list(buffers)
        assert len(buffers) <= IOV_MAX
        # Never past bytes the transport still holds: they go first.
        assert not self.transport.get_write_buffer_size()
        self.calls.append(buffers)
        data = b"".join(buffers)
        take = next(self.accepted, None)
        take = len(data) if take is None else min(take, len(data))
        if data and not take:
            raise BlockingIOError
        self.wire += data[:take]
        return take


class _Transport:
    """The socket transport: what ``write`` gets waits in its buffer
    until ``drain`` hands it to the kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        kernel.transport = self
        self.buffer = bytearray()
        self.writes = []
        self.closing = False

    def write(self, data):
        assert not self.closing, "written while closing"
        self.writes.append(bytes(data))
        self.buffer += data

    def get_write_buffer_size(self):
        return len(self.buffer)

    def drain(self):
        self.kernel.wire += self.buffer
        self.buffer.clear()

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


def _connect(sender, kernel):
    """Greet a connection on the ring hop whose socket is ``kernel``."""
    link = sender.ring
    link._loop = asyncio.get_running_loop()
    stub = _Transport(kernel)
    conn = transport_module._OutboundConnection(link)
    conn.connection_made(stub)
    conn.fd = FD
    link._greet(conn)
    return conn, stub


def _data(seq, payload):
    return FwdData(
        message_id=MessageId(0, seq), origin=0, payload=payload,
        payload_size=len(payload), view_id=0, piggybacked=[],
    )


def _many(count):
    return [bytes([index % 251]) * (index % 5) for index in range(count)]


_writes = st.lists(
    st.tuples(
        st.one_of(
            st.lists(st.binary(max_size=300), min_size=1, max_size=8),
            st.integers(IOV_MAX + 1, 2 * IOV_MAX + 3).map(_many),
        ),
        st.booleans(),  # the transport drains its buffer after the write
    ),
    min_size=1, max_size=6,
)
_accepted = st.lists(
    st.one_of(st.none(), st.just(0), st.integers(1, 2_000)), max_size=20,
)


@given(writes=_writes, accepted=_accepted)
@settings(max_examples=150, deadline=None)
def test_the_peer_reads_every_write_whole_and_in_order(writes, accepted):
    kernel = _Kernel(accepted)

    async def main():
        sender = _Sender()
        conn, stub = _connect(sender, kernel)
        stub.drain()  # the Hello
        expected = bytearray(kernel.wire)
        for parts, drains in writes:
            held = stub.get_write_buffer_size()
            calls = len(kernel.calls)
            conn.write(list(parts))
            expected += b"".join(parts)
            if held:
                assert len(kernel.calls) == calls  # joined behind them
            if drains:
                stub.drain()
        stub.drain()
        return expected

    with mock.patch.object(os, "writev", kernel.writev):
        expected = asyncio.run(main())
    assert kernel.wire == expected


def test_a_closing_transport_is_not_written_and_keeps_the_queue():
    kernels = [_Kernel(), _Kernel()]

    async def main():
        sender = _Sender()
        owner = sender.owner
        kernel, fresh_kernel = kernels
        conn, stub = _connect(sender, kernel)
        stub.drain()
        calls = len(kernel.calls)
        stub.close()  # closing; connection_lost not delivered yet
        owner.send(1, _data(1, b"kept"))
        await asyncio.sleep(0)
        assert len(kernel.calls) == calls and len(stub.writes) == 1
        assert owner.queued_bytes == len(encode_frame(_data(1, b"kept")))
        conn.connection_lost(None)
        kernels.pop(0)
        _conn, fresh = _connect(sender, fresh_kernel)
        fresh.drain()
        await asyncio.sleep(0)
        hello = encode_frame(Hello(node_id=0))
        assert fresh_kernel.wire == hello + encode_frame(_data(1, b"kept"))
        assert fresh.writes == [hello]
        assert owner.queued_bytes == 0

    def writev(fd, buffers):
        return kernels[0].writev(fd, buffers)

    with mock.patch.object(os, "writev", writev):
        asyncio.run(main())


def test_epipe_falls_back_to_transport_write_and_loses_the_connection():
    async def main():
        loop = asyncio.get_running_loop()
        sender = _Sender()
        owner, link = sender.owner, sender.ring
        link._loop = loop
        mine, peer = socket.socketpair()
        _transport, conn = await loop.create_connection(
            lambda: transport_module._OutboundConnection(link), sock=mine
        )
        conn.fd = conn.transport.get_extra_info("socket").fileno()
        link._greet(conn)
        peer.close()  # the peer is gone: the next write meets EPIPE
        writev_errors = []

        def writev(fd, buffers):
            try:
                return os_writev(fd, buffers)
            except OSError as exc:
                writev_errors.append(exc)
                raise

        with mock.patch.object(os, "writev", writev):
            owner.send(1, _data(1, b"x" * 1_000))
            await asyncio.sleep(0)
        assert [type(exc) for exc in writev_errors] == [BrokenPipeError]
        assert owner.tx_partial_writes == 1
        # transport.write met the same error: the connection is lost and
        # the link stopped writing to it.
        await asyncio.wait_for(conn.lost, 5.0)
        assert link.conn is None

    os_writev = os.writev
    asyncio.run(main())


def test_a_write_larger_than_the_socket_buffer_arrives_whole():
    """A real socket: ``os.writev`` takes what fits, and the rest goes
    through the transport's buffer behind it."""

    async def main():
        loop = asyncio.get_running_loop()
        sender = _Sender()
        owner, link = sender.owner, sender.ring
        link._loop = loop
        mine, peer = socket.socketpair()
        peer.setblocking(False)
        _transport, conn = await loop.create_connection(
            lambda: transport_module._OutboundConnection(link), sock=mine
        )
        conn.fd = conn.transport.get_extra_info("socket").fileno()
        link._greet(conn)
        messages = [_data(seq, bytes([seq % 256]) * 4_000) for seq in range(2_000)]
        for message in messages:
            owner.send(1, message)
        await asyncio.sleep(0)
        assert owner.flushes == 1 and owner.tx_partial_writes == 1
        expected = encode_frame(Hello(node_id=0)) + b"".join(
            encode_frame(message) for message in messages
        )
        received = bytearray()
        while len(received) < len(expected):
            received += await asyncio.wait_for(
                loop.sock_recv(peer, 1 << 20), 5.0
            )
        assert received == expected
        link.close()
        peer.close()
        await asyncio.wait_for(conn.lost, 5.0)

    asyncio.run(main())


def test_the_payload_object_reaches_writev_uncopied():
    payloads = [bytes([seq]) * 100_000 for seq in range(3)]

    for batching in (None, BatchingConfig(max_batch_bytes=1_000_000)):
        kernel = _Kernel()

        async def main():
            sender = _Sender(batching=batching)
            _conn, stub = _connect(sender, kernel)
            stub.drain()
            for seq, payload in enumerate(payloads):
                sender.owner.send(1, _data(seq, payload))
            await asyncio.sleep(0)
            return sender.owner

        with mock.patch.object(os, "writev", kernel.writev):
            owner = asyncio.run(main())
        (buffers,) = kernel.calls  # one write, one writev
        for payload in payloads:
            assert sum(buffer is payload for buffer in buffers) == 1
        frames = [
            encode_frame(_data(seq, payload))
            for seq, payload in enumerate(payloads)
        ]
        if batching is None:
            assert kernel.wire[len(encode_frame(Hello(node_id=0))):] == (
                b"".join(frames)
            )
        else:
            assert owner.batches_sent == 1
            assert kernel.wire[len(encode_frame(Hello(node_id=0))):] == (
                b"".join(batch_frame_parts(frames))
            )
        assert owner.tx_partial_writes == 0
