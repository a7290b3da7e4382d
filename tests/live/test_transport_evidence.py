"""Crash evidence from the control plane (DESIGN.md §5c), over real sockets.

The rule under test: an established control connection hung up without
a goodbye *and* the re-dial of the peer's port was refused means the
peer's process is gone — one ``on_peer_refused`` upcall.  Everything
weaker is not evidence: a peer that never listened, a reset connection
whose re-dial succeeds, an orderly ``close()`` that said goodbye.  Two
``RingTransport``s in one loop; the "crash" is what the kernel does to
a SIGKILLed process's sockets, done by hand.
"""

import asyncio

import pytest

from repro.live.codec import CHANNEL_CONTROL
from repro.live.transport import GOODBYE, RingTransport
from tests.live.test_transport_recovery import _drain_until, _free_port

#: Long enough for a dozen re-dials at ``reconnect_base_s=0.01``.
_RETRY_WINDOW_S = 0.3


class _Pair:
    """Node 0 (the observer) and node 1 (the peer that goes away)."""

    def __init__(self):
        port_a, port_b = _free_port(), _free_port()
        peers = {0: ("127.0.0.1", port_a), 1: ("127.0.0.1", port_b)}
        self.refused, self.seen = [], []
        self.a, self.b = (
            RingTransport(
                me, peers[me], other, peers[other], lambda src, msg: None,
                peers=peers, reconnect_base_s=0.01, reconnect_cap_s=0.02,
                max_retries=None,
            )
            for me, other in ((0, 1), (1, 0))
        )
        self.a.on_peer_refused = self.refused.append
        self.b.on_control = lambda layer, src, inner: self.seen.append(inner)

    async def establish(self):
        """Start both; node 0's control connection to node 1 is up and
        registered at node 1 when this returns."""
        await self.a.start()
        await self.b.start()
        self.a.send_control(1, "fd", "hello")
        assert await _drain_until(lambda: self.seen == ["hello"])
        assert (0, CHANNEL_CONTROL) in self.b._inbound_peers

    async def leave_a_frame_unread(self):
        """Node 1 stops reading and node 0's next frame sits in node 1's
        kernel buffer: closing that socket now sends RST, not FIN."""
        self.b._inbound_peers[(0, CHANNEL_CONTROL)].pause_reading()
        sent = self.a.control_frames_sent
        self.a.send_control(1, "fd", "never read")
        assert await _drain_until(
            lambda: self.a.control_frames_sent == sent + 1
        )
        await asyncio.sleep(0.05)

    async def close(self):
        await self.a.close()
        await self.b.close()


def _kill(node):
    """The kernel's part of a SIGKILL: the listener goes, then every
    accepted connection (FIN, or RST where bytes sat unread), and
    nothing is said on any of them."""
    node._server.close()
    for inbound in list(node._inbound_peers.values()):
        inbound.abort()


@pytest.mark.parametrize("reset", [True, False], ids=["rst", "fin"])
def test_hang_up_then_refusal_is_reported_exactly_once(reset):
    async def main():
        pair = _Pair()
        await pair.establish()
        if reset:
            await pair.leave_a_frame_unread()
        _kill(pair.b)
        assert await _drain_until(lambda: bool(pair.refused))
        # Every later dial is refused as well; none of them is news.
        await asyncio.sleep(_RETRY_WINDOW_S)
        assert pair.refused == [1]
        await pair.close()

    asyncio.run(main())


def test_redial_that_races_the_dying_listener_defers_the_evidence(monkeypatch):
    """The kernel closes a killed process's listener *after* its
    connections, so the first re-dial can land in that window and come
    back reset instead of refused (seen once per ~40 SIGKILLs): not
    evidence yet, and not the end of it — the next dial is refused."""
    async def main():
        pair = _Pair()
        await pair.establish()
        real_open = asyncio.open_connection
        control_dialler = pair.a._control_peers[1].task
        outcomes = []

        async def racing_open(host, port, **kwargs):
            if asyncio.current_task() is control_dialler and not outcomes:
                outcomes.append("reset")
                raise ConnectionResetError(104, "Connect call failed")
            return await real_open(host, port, **kwargs)

        _kill(pair.b)
        monkeypatch.setattr(asyncio, "open_connection", racing_open)
        assert await _drain_until(lambda: bool(pair.refused))
        assert outcomes == ["reset"]
        await asyncio.sleep(_RETRY_WINDOW_S)
        assert pair.refused == [1]
        await pair.close()

    asyncio.run(main())


def test_reset_connection_whose_redial_succeeds_is_not_evidence():
    async def main():
        pair = _Pair()
        await pair.establish()
        first = pair.b._inbound_peers[(0, CHANNEL_CONTROL)]
        first.abort()  # the listener stays
        assert await _drain_until(
            lambda: pair.b._inbound_peers.get((0, CHANNEL_CONTROL))
            not in (None, first)
        )
        pair.a.send_control(1, "fd", "after the reset")
        assert await _drain_until(
            lambda: pair.seen == ["hello", "after the reset"]
        )
        await asyncio.sleep(_RETRY_WINDOW_S)
        assert pair.refused == []
        await pair.close()

    asyncio.run(main())


def test_peer_that_never_listened_is_not_evidence():
    async def main():
        pair = _Pair()
        await pair.a.start()  # node 1 never starts: not listening *yet*
        pair.a.send_control(1, "fd", "anyone?")
        await asyncio.sleep(_RETRY_WINDOW_S)
        assert pair.refused == []
        # ... and once it does listen, the queued frame arrives.
        await pair.b.start()
        assert await _drain_until(lambda: pair.seen == ["anyone?"])
        await pair.close()

    asyncio.run(main())


def test_orderly_close_says_goodbye_and_is_not_evidence():
    async def main():
        pair = _Pair()
        await pair.establish()
        await pair.b.close()
        # Frames keep being queued for the departed peer (heartbeats
        # would), every dial is refused, and none of it is a crash.
        pair.a.send_control(1, "fd", "still there?")
        await asyncio.sleep(_RETRY_WINDOW_S)
        assert pair.refused == []
        await pair.a.close()

    asyncio.run(main())


def test_goodbye_is_said_once_the_listener_is_gone(monkeypatch):
    """A peer re-dials the moment it has read the goodbye: with the
    listener still open that dial lands in a backlog that is about to be
    reset — a hang-up with no goodbye, then refusals (2 of 8 staggered
    SIGTERM runs suspected the leaver that way)."""
    async def main():
        pair = _Pair()
        await pair.establish()
        order = []
        server = pair.b._server
        inbound = pair.b._inbound_peers[(0, CHANNEL_CONTROL)]
        real_close, real_write = server.close, inbound.write
        monkeypatch.setattr(
            server, "close", lambda: (order.append("listener"), real_close())
        )
        monkeypatch.setattr(
            inbound, "write",
            lambda data: (order.append(("said", data)), real_write(data)),
        )
        await pair.b.close()
        assert order == ["listener", ("said", GOODBYE)]
        await pair.a.close()

    asyncio.run(main())


def test_goodbye_survives_a_close_that_resets():
    """A peer closing with this node's heartbeats still unread in its
    kernel buffer sends RST, not FIN; the goodbye was written first and
    is still read first."""
    async def main():
        pair = _Pair()
        await pair.establish()
        await pair.leave_a_frame_unread()
        await pair.b.close()
        await asyncio.sleep(_RETRY_WINDOW_S)
        assert pair.refused == []
        await pair.a.close()

    asyncio.run(main())


def test_failing_upcall_fails_the_transport():
    async def main():
        pair = _Pair()

        def broken(peer):
            raise RuntimeError("boom")

        pair.a.on_peer_refused = broken
        await pair.establish()
        _kill(pair.b)
        assert await _drain_until(lambda: pair.a.failure is not None)
        assert "boom" in pair.a.failure
        await pair.close()

    asyncio.run(main())
