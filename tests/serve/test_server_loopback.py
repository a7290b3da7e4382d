"""In-process server/client loopback tests.

A single :class:`SessionServer` over a fake single-replica "total
order" (submit applies immediately) exercises the full asyncio request
path — wire codec, dispatch, dedup cache, lease/barrier gating, the
pipelining client — without spawning a live cluster.
"""

import asyncio

import pytest

from repro.errors import NetworkError
from repro.live.scheduler import AsyncioScheduler
from repro.serve.client import SessionClient
from repro.serve.lease import LeaderLease
from repro.serve.server import SessionServer
from repro.serve.session import SessionMachine
from repro.serve.wire import Request
from repro.smr.kvstore import KVStore
from repro.types import View


class InstantRSM:
    """Single-replica stand-in: submit == apply, in submission order."""

    def __init__(self, machine: SessionMachine) -> None:
        self.machine = machine
        self.fail = False

    def submit(self, command) -> None:
        if self.fail:
            raise NetworkError("broadcast rejected (view change in progress)")
        self.machine.apply(command)


class _Harness:
    def __init__(self) -> None:
        loop = asyncio.get_running_loop()
        self.machine = SessionMachine(KVStore())
        self.rsm = InstantRSM(self.machine)
        self.sched = AsyncioScheduler(loop)
        self.lease = LeaderLease(self.sched, node_id=0, lease_s=30.0)
        self.server = SessionServer(
            0, self.rsm, self.machine, self.lease, self.sched
        )

    async def start(self) -> "tuple[str, int]":
        await self.server.start("127.0.0.1", 0)
        self.server.on_view(View(view_id=0, members=(0,)))
        # The bootstrap renewal applies instantly through InstantRSM.
        await asyncio.sleep(0)
        return self.server._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        await self.server.close()


class _RecordingConnection:
    """Stands in for a client connection: records what it is answered."""

    def __init__(self) -> None:
        self.responses = []

    def respond(self, request, response) -> None:
        self.responses.append((request, response))


@pytest.fixture
def loopback():
    async def runner(scenario):
        harness = _Harness()
        address = await harness.start()
        client = SessionClient("c1", [address], retry_timeout_s=5.0)
        await client.connect()
        try:
            await scenario(harness, client)
        finally:
            await client.close()
            await harness.stop()

    return lambda scenario: asyncio.run(runner(scenario))


def test_writes_reads_and_errors_round_trip(loopback):
    async def scenario(harness, client):
        put = await client.request("put", "k", "v1")
        assert put.ok and put.served == "ordered"
        get = await client.request("get", "k")
        assert get.ok and get.result == "v1"
        assert get.served == "local"  # leaseholder, barrier satisfied
        assert client.local_reads == 1
        bad = await client.request("incr", "k", 1)
        assert not bad.ok and bad.served == "ordered"
        assert "incr" in bad.error
        assert client.errors == 1
        # Mutations acked in order; reads and errors tracked apart.
        assert [w[:2] for w in client.acked_writes] == [(1, "put")]

    loopback(scenario)


def test_duplicate_of_acked_write_served_from_cache(loopback):
    async def scenario(harness, client):
        first = await client.request("incr", "ctr", 5)
        assert first.ok and first.result == 5
        dup = await client.duplicate(1, "incr", "ctr", 5)
        assert dup.ok and dup.result == 5
        assert dup.served == "cached"
        assert client.cached_responses == 1
        # The inner machine executed once: no double increment.
        assert harness.machine.inner.snapshot() == {"ctr": 5}
        assert harness.server.stats()["cached"] == 1
        assert harness.machine.session_applies == 1

    loopback(scenario)


def test_ordered_flag_bypasses_the_local_read_path(loopback):
    async def scenario(harness, client):
        await client.request("put", "k", "v")
        read = await client.request("get", "k", ordered=True)
        assert read.ok and read.served == "ordered"
        assert harness.server.stats()["local_reads"] == 0

    loopback(scenario)


def test_reads_fall_back_to_ordered_without_the_lease(loopback):
    async def scenario(harness, client):
        await client.request("put", "k", "v")
        # Another node takes over leadership: the lease drops instantly.
        harness.server.on_view(View(view_id=1, members=(1, 0)))
        read = await client.request("get", "k")
        assert read.ok and read.result == "v"
        assert read.served == "ordered"
        assert harness.server.stats()["lease_rejects"] >= 1
        assert read.leader == 1  # failover hint

    loopback(scenario)


def test_local_read_ack_leaves_the_barrier_where_it_was(loopback):
    """A local read is never applied to the session table, so its ack
    must not become the client's barrier: if it did, no replica could
    ever satisfy the next read, which would go through the total order."""
    async def scenario(harness, client):
        await client.request("put", "k", "v")
        first = await client.request("get", "k")
        second = await client.request("get", "k")
        assert (first.served, second.served) == ("local", "local")
        assert client.barrier == 1
        assert harness.server.stats()["barrier_rejects"] == 0

    loopback(scenario)


def test_stale_barrier_forces_ordered_read(loopback):
    async def scenario(harness, client):
        await client.request("put", "k", "v")
        # Simulate a replica lagging this client's acked writes: the
        # client's barrier (1) is ahead of what the session table shows.
        del harness.machine.sessions["c1"]
        read = await client.request("get", "k")
        assert read.served == "ordered"
        assert harness.server.stats()["barrier_rejects"] == 1

    loopback(scenario)


def test_unavailable_submit_triggers_client_retry(loopback):
    async def scenario(harness, client):
        await client.request("put", "k", "v")
        # Next ordered submit is rejected (view change in progress);
        # the server answers "unavailable" and the client re-pends,
        # fails over (same address), and retries to success.
        harness.rsm.fail = True
        fut = client.submit("put", "k", "v2")
        await asyncio.sleep(0.15)
        assert not fut.done()
        harness.rsm.fail = False
        await client.resend()
        response = await asyncio.wait_for(fut, 5.0)
        assert response.ok
        assert client.reconnects >= 1
        assert harness.machine.inner.snapshot() == {"k": "v2"}

    loopback(scenario)


def test_pipelined_requests_one_connection(loopback):
    async def scenario(harness, client):
        futures = [client.submit("incr", "ctr", 1) for _ in range(10)]
        responses = await asyncio.gather(*futures)
        assert all(r.ok for r in responses)
        assert sorted(r.result for r in responses) == list(range(1, 11))
        assert harness.machine.inner.snapshot() == {"ctr": 10}

    loopback(scenario)


def test_dispatch_rejects_mutating_local_read_attempts():
    # Defense in depth: even if a request claimed a mutating op were
    # read-only, the machine's local_read refuses to execute it.
    async def scenario():
        harness = _Harness()
        await harness.start()
        try:
            request = Request(
                client="c", seq=1, first_unacked=1, barrier=0,
                op="put", args=("k", "v"),
            )
            conn = _RecordingConnection()
            harness.server._dispatch(request, conn)
            while not conn.responses:
                await asyncio.sleep(0)
            ((_request, response),) = conn.responses
            assert response.served == "ordered"  # never the local path
        finally:
            await harness.stop()

    asyncio.run(scenario())
