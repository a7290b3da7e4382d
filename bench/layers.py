"""Isolated drives: each layer timed alone, from outside, around its
public calls.  CPU-bound, no cluster; every drive is repeated
``REPEATS`` times and reported as median and quartiles.

What each number should move end to end is written in ``README.md``
(layer → end-to-end table); the short form is in ``LAYER_NOTES``.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis import fsr_max_throughput_bps
from repro.cluster.config import ClusterConfig
from repro.cluster.harness import build_cluster
from repro.core.api import BroadcastListener
from repro.core.batching import batching_config_from_flags
from repro.core.fsr.config import FSRConfig
from repro.core.fsr.messages import AckBatch, AckMsg, FwdData, SeqData
from repro.core.fsr.process import FSRProcess
from repro.core.fsr.ring import Ring
from repro.live.codec import (
    FrameBatch,
    FrameEncoder,
    decode_frame,
    decode_message,
    encode_frame,
)
from repro.live.node import StaticDetector
from repro.live.scheduler import AsyncioScheduler
from repro.live.transport import RingTransport
from repro.metrics.collector import collect_metrics
from repro.net.params import NetworkParams
from repro.serve.client import SessionClient
from repro.serve.lease import LeaderLease
from repro.serve.server import SessionServer
from repro.serve.session import SessionMachine, session_command
from repro.serve.wire import (
    LENGTH_PREFIX_BYTES,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.smr.kvstore import KVStore
from repro.types import MessageId, View
from repro.vsc.membership import GroupMembership
from repro.workloads.driver import run_workload
from repro.workloads.patterns import KToNPattern

from stats import percentile, summarize

#: Repeats per isolated drive (median and quartiles are over these).
REPEATS = 7

LAYER_NOTES = {
    "codec": "ops_per_s: 64 B numbers @ ring_small_sat, 100 KB @ ring_large_sat",
    "fsr": "upper bound on ops_per_s @ ring_small_sat; barely moves ring_large_sat",
    "transport": "batched: ops_per_s @ ring_small_sat; "
                 "unbatched: ops_per_s @ serve_sat, client.write_p50_ms",
    "wire": "ops_per_s @ serve_sat; at most ~0.1 ms of op_p50_ms @ serve_open",
    "session": "ops_per_s @ serve_sat",
    "server": "the part of op_p50_ms / ops_per_s on serve_* that is not the ring",
    "sim": "sim / closed-form column beside live ring_large_sat",
}


def _repeat(drive: Callable[[], float], repeats: int) -> List[float]:
    drive()  # warm caches, struct tables, buffer growth
    return [drive() for _ in range(repeats)]


# -- live.codec ------------------------------------------------------------
def codec_mix(payload_bytes: int) -> List[Any]:
    """The ``benchmarks/bench_codec.py`` mix: data frames dominate,
    acks piggybacked, one standalone ack batch."""
    acks = [AckMsg(MessageId(i % 4, i), i % 4, bool(i % 2), 0) for i in range(4)]
    payload = b"x" * payload_bytes
    mix: List[Any] = []
    for seq in range(8):
        common = dict(
            message_id=MessageId(seq % 4, seq), origin=seq % 4,
            payload=payload, payload_size=payload_bytes, view_id=0,
            piggybacked=acks[: seq % 3],
        )
        mix.append(FwdData(**common))
        mix.append(SeqData(sequence=seq, stable=bool(seq % 2), **common))
    mix.append(AckBatch(acks=acks, view_id=0, watermark=5))
    return mix


def _ns_per_item(fn: Callable[[Any], Any], items: List[Any], passes: int) -> float:
    start = time.perf_counter_ns()
    for _ in range(passes):
        for item in items:
            fn(item)
    return (time.perf_counter_ns() - start) / (passes * len(items))


def drive_codec(repeats: int = REPEATS) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for label, size, passes in (("64b", 64, 300), ("100kb", 100_000, 20)):
        messages = codec_mix(size)
        encoder = FrameEncoder()
        frames = [encode_frame(message) for message in messages]
        for message, frame in zip(messages, frames):
            if encoder.encode_frame(message) != frame:
                raise AssertionError("FrameEncoder is not byte-identical")
            if decode_frame(frame)[0] != message:
                raise AssertionError("codec round trip changed a message")
        out[f"codec.encode_{label}_ns"] = _repeat(
            lambda: _ns_per_item(encoder.encode_frame, messages, passes), repeats
        )
        out[f"codec.encode_alloc_{label}_ns"] = _repeat(
            lambda: _ns_per_item(encode_frame, messages, passes), repeats
        )
        out[f"codec.decode_{label}_ns"] = _repeat(
            lambda: _ns_per_item(decode_frame, frames, passes), repeats
        )
        if label == "64b":
            body = encode_frame(FrameBatch(messages=messages))[LENGTH_PREFIX_BYTES:]
            out["codec.batch_decode_64b_ns"] = _repeat(
                lambda: _ns_per_item(decode_message, [body], passes)
                / len(messages),
                repeats,
            )
    return out


# -- core.fsr over a null transport ---------------------------------------
class _NullScheduler:
    """The trivial ``Scheduler``: real clock, timers dropped (a static
    three-member ring never needs one to fire)."""

    @property
    def now(self) -> float:
        return time.perf_counter()

    def schedule(self, delay: float, callback: Callable, *args: Any):
        return _NullTimer()


class _NullTimer:
    def cancel(self) -> None:
        pass


class _SilentPort:
    """Membership port of a static ring: nothing to say, nobody to hear."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def send(self, dst: int, message: Any, size_bytes=None) -> None:
        raise AssertionError("static membership never sends")

    def on_receive(self, handler) -> None:
        pass


class _FifoPort:
    """In-memory ring hop: a send is an append to the shared FIFO."""

    def __init__(self, node_id: int, fifo: deque, handlers: dict) -> None:
        self.node_id = node_id
        self._fifo = fifo
        self._handlers = handlers

    def send(self, dst: int, message: Any, size_bytes=None) -> None:
        self._fifo.append((dst, self.node_id, message))

    def on_receive(self, handler) -> None:
        self._handlers[self.node_id] = handler


_REFILL = object()


def null_ring_run(
    messages: int, n: int = 3, window: int = 16, payload_bytes: int = 64
) -> Tuple[float, int, int]:
    """``n`` FSR automata, all senders, closed loop, no sockets, no
    codec.  Returns (seconds, broadcasts delivered everywhere,
    ``on_message`` calls)."""
    sched = _NullScheduler()
    fifo: deque = deque()
    handlers: Dict[int, Callable] = {}
    members = tuple(range(n))
    delivered = [0] * n
    outstanding = [0] * n
    submitted = [0]
    processes: List[FSRProcess] = []
    payload = bytes(payload_bytes)

    def listener(me: int) -> BroadcastListener:
        def on_deliver(origin, message_id, _payload, _size) -> None:
            delivered[me] += 1
            if origin == me:
                outstanding[me] -= 1
                fifo.append((me, me, _REFILL))
        return BroadcastListener(on_deliver)

    for me in members:
        membership = GroupMembership(
            sched, _SilentPort(me), StaticDetector(), me=me,
            initial_members=members,
        )
        process = FSRProcess(
            sched, _FifoPort(me, fifo, handlers), membership, FSRConfig(t=1)
        )
        process.set_listener(listener(me))
        processes.append(process)
    for process in processes:
        process.start()

    def refill(me: int) -> None:
        while outstanding[me] < window and submitted[0] < messages:
            submitted[0] += 1
            outstanding[me] += 1
            processes[me].broadcast(payload)

    calls = 0
    start = time.perf_counter()
    for me in members:
        refill(me)
    while fifo:
        dst, src, message = fifo.popleft()
        if message is _REFILL:
            refill(dst)
        else:
            calls += 1
            handlers[dst](src, message)
    elapsed = time.perf_counter() - start
    if min(delivered) != messages:
        raise AssertionError(
            f"null ring delivered {delivered} of {messages} broadcasts"
        )
    return elapsed, messages, calls


def drive_fsr(repeats: int = REPEATS, messages: int = 3000) -> Dict[str, List[float]]:
    rates: List[float] = []
    per_call: List[float] = []
    null_ring_run(300)
    for _ in range(repeats):
        elapsed, done, calls = null_ring_run(messages)
        rates.append(done / elapsed)
        per_call.append(elapsed / calls * 1e6)
    return {"fsr.null_ring_msgs_per_s": rates, "fsr.on_message_us": per_call}


# -- live.transport loopback ----------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def _transport_pair(batching, frames: int, repeats: int) -> List[float]:
    """Two ``RingTransport``s in one loop; node 0 streams 64 B frames
    to node 1 and the clock stops when the last one is handed up."""
    ports = (_free_port(), _free_port())
    received = [0]
    done = asyncio.Event()
    target = [0]

    def on_message(_src: int, _message: Any) -> None:
        received[0] += 1
        if received[0] >= target[0]:
            done.set()

    pair = [
        RingTransport(
            node_id=me,
            listen_addr=("127.0.0.1", ports[me]),
            successor_id=1 - me,
            successor_addr=("127.0.0.1", ports[1 - me]),
            on_message=on_message,
            batching=batching,
        )
        for me in (0, 1)
    ]
    message = FwdData(
        message_id=MessageId(0, 1), origin=0, payload=bytes(64),
        payload_size=64, view_id=0, piggybacked=[],
    )
    rates: List[float] = []
    try:
        for transport in pair:
            await transport.start()
        for transport in pair:
            if not await transport.wait_outbound_connected(10.0):
                raise AssertionError("loopback transport did not connect")
        sender = pair[0]
        for rep in range(repeats + 1):  # first pass warms the path
            done.clear()
            target[0] = received[0] + frames
            start = time.perf_counter()
            sent = 0
            while sent < frames:
                # Respect the TX gate the way FSR's pump does.
                while sent < frames and sender.tx_ready:
                    sender.send(1, message)
                    sent += 1
                await asyncio.sleep(0)
            await asyncio.wait_for(done.wait(), 30.0)
            if rep:
                rates.append(frames / (time.perf_counter() - start))
    finally:
        for transport in pair:
            await transport.close()
    return rates


def drive_transport(repeats: int = REPEATS, frames: int = 2000) -> Dict[str, List[float]]:
    batching = batching_config_from_flags(60_000, 64, 0.001)
    return {
        "transport.loopback_frames_per_s_unbatched": asyncio.run(
            _transport_pair(None, frames, repeats)
        ),
        "transport.loopback_frames_per_s_batched": asyncio.run(
            _transport_pair(batching, frames, repeats)
        ),
    }


# -- serve.wire / serve.session -------------------------------------------
def drive_wire(repeats: int = REPEATS, passes: int = 2000) -> Dict[str, List[float]]:
    request = Request(
        client="bench0-0", seq=1234, first_unacked=1200, barrier=1233,
        op="put", args=("k17", "v" * 64),
    )
    response = Response(
        seq=1234, ok=True, result="v" * 64, error=None, served="ordered",
        leader=0, view_id=0,
    )

    def request_roundtrip(_: Any) -> None:
        decode_request(encode_request(request)[LENGTH_PREFIX_BYTES:])

    def response_roundtrip(_: Any) -> None:
        decode_response(encode_response(response)[LENGTH_PREFIX_BYTES:])

    if decode_request(encode_request(request)[LENGTH_PREFIX_BYTES:]) != request:
        raise AssertionError("request wire round trip changed the request")
    return {
        "wire.request_roundtrip_us": _repeat(
            lambda: _ns_per_item(request_roundtrip, [None], passes) / 1e3, repeats
        ),
        "wire.response_roundtrip_us": _repeat(
            lambda: _ns_per_item(response_roundtrip, [None], passes) / 1e3, repeats
        ),
    }


def drive_session(repeats: int = REPEATS, count: int = 2000) -> Dict[str, List[float]]:
    value = "v" * 64

    def apply_run() -> Tuple[float, float]:
        machine = SessionMachine(KVStore())
        commands = [
            session_command("bench", seq, max(1, seq - 32), "put",
                            (f"k{seq % 100}", value))
            for seq in range(1, count + 1)
        ]
        start = time.perf_counter_ns()
        for command in commands:
            machine.apply(command)
        apply_us = (time.perf_counter_ns() - start) / count / 1e3
        if machine.session_applies != count:
            raise AssertionError("session machine skipped applies")
        recent = range(count - 31, count + 1)
        start = time.perf_counter_ns()
        for _ in range(count // 32):
            for seq in recent:
                machine.lookup("bench", seq)
        lookup_us = (time.perf_counter_ns() - start) / (count // 32 * 32) / 1e3
        return apply_us, lookup_us

    apply_run()
    runs = [apply_run() for _ in range(repeats)]
    return {
        "session.apply_us": [r[0] for r in runs],
        "session.dedup_lookup_us": [r[1] for r in runs],
    }


# -- serve.server, zero replication ---------------------------------------
class _ApplyOnSubmit:
    """Single-replica stand-in for the RSM: submit == apply (as in
    ``tests/serve/test_server_loopback.py``)."""

    def __init__(self, machine: SessionMachine) -> None:
        self.machine = machine

    def submit(self, command) -> None:
        self.machine.apply(command)


async def _single_replica(repeats: int, window_s: float, outstanding: int):
    loop = asyncio.get_running_loop()
    machine = SessionMachine(KVStore())
    sched = AsyncioScheduler(loop)
    server = SessionServer(
        0, _ApplyOnSubmit(machine), machine,
        LeaderLease(sched, node_id=0, lease_s=30.0), sched,
    )
    await server.start("127.0.0.1", 0)
    server.on_view(View(view_id=0, members=(0,)))
    await asyncio.sleep(0)
    address = server._server.sockets[0].getsockname()[:2]
    client = SessionClient("bench", [address], retry_timeout_s=5.0)
    await client.connect()
    rates: List[float] = []
    medians: List[float] = []
    value = "v" * 64
    try:
        for rep in range(repeats + 1):
            latencies: List[float] = []
            deadline = loop.time() + window_s
            counter = [0]
            inflight = [0]
            idle = asyncio.Event()

            def submit() -> None:
                counter[0] += 1
                op = ("get", f"k{counter[0] % 100}") if counter[0] % 10 == 0 \
                    else ("put", f"k{counter[0] % 100}", value)
                started = loop.time()
                inflight[0] += 1

                def done(f, t0=started) -> None:
                    inflight[0] -= 1
                    if not f.cancelled() and f.exception() is None and f.result().ok:
                        latencies.append(loop.time() - t0)
                    if loop.time() < deadline:
                        submit()
                    elif not inflight[0]:
                        idle.set()

                client.submit(*op).add_done_callback(done)

            begin = loop.time()
            for _ in range(outstanding):
                submit()
            await asyncio.wait_for(idle.wait(), window_s + 10.0)
            if rep:
                rates.append(len(latencies) / (loop.time() - begin))
                medians.append(percentile(sorted(latencies), 0.5) * 1e3)
    finally:
        await client.close()
        await server.close()
    return rates, medians


def drive_server(repeats: int = REPEATS, window_s: float = 0.2) -> Dict[str, List[float]]:
    rates, medians = asyncio.run(_single_replica(repeats, window_s, 32))
    return {
        "server.single_replica_rps": rates,
        "server.single_replica_p50_ms": medians,
    }


# -- DES and closed form ----------------------------------------------------
def drive_sim(repeats: int = REPEATS) -> Dict[str, List[float]]:
    """DES n=5, k=5, 100 KB, 200 msgs/sender on fast Ethernet.

    Everything but ``sim.events_per_s`` repeats exactly run to run, so
    three timed runs are plenty."""
    n, per_sender, size = 5, 200, 100_000
    repeats = min(repeats, 3)
    rates: List[float] = []
    counts: Dict[str, float] = {}
    for _ in range(repeats):
        start = time.perf_counter()
        cluster = build_cluster(
            ClusterConfig(n=n, protocol="fsr", protocol_config=FSRConfig(t=1))
        )
        outcome = run_workload(
            cluster,
            KToNPattern(senders=tuple(range(n)), messages_per_sender=per_sender,
                        message_bytes=size),
        )
        elapsed = time.perf_counter() - start
        events = cluster.sim.events_processed
        rates.append(events / elapsed)
        broadcasts = n * per_sender
        wire_msgs = sum(s.messages_tx for s in outcome.result.nic_stats.values())
        counts = {
            "sim.goodput_mbps": collect_metrics(outcome).aggregate_throughput_mbps,
            "sim.events_per_broadcast": events / broadcasts,
            "sim.wire_msgs_per_broadcast": wire_msgs / broadcasts,
        }
    out = {"sim.events_per_s": rates}
    out.update({name: [value] for name, value in counts.items()})
    params = NetworkParams.fast_ethernet()
    out["model.goodput_mbps"] = [fsr_max_throughput_bps(params, size, n, 1) / 1e6]
    # L(i) = 2n + t - i - 1 at i = 1, the farthest sender from the leader.
    out["model.latency_hops"] = [
        float(Ring(members=tuple(range(n)), t=1).latency_rounds(1))
    ]
    return out


DRIVES: Tuple[Tuple[str, Callable[..., Dict[str, List[float]]]], ...] = (
    ("codec", drive_codec),
    ("fsr", drive_fsr),
    ("transport", drive_transport),
    ("wire", drive_wire),
    ("session", drive_session),
    ("server", drive_server),
    ("sim", drive_sim),
)

def run_isolated(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """All isolated drives → ``{metric: {median, q1, q3, n, layer}}``."""
    repeats = 3 if quick else REPEATS
    results: Dict[str, Dict[str, float]] = {}
    for layer, drive in DRIVES:
        for name, values in drive(repeats).items():
            results[name] = dict(summarize(values), layer=layer)
    return results
