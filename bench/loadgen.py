"""The benchmark's own load generators over ``SessionClient.submit``.

``repro.serve.loadgen.run_load`` stamps a request after its sleep
returns, so a generator stall hides inside the schedule instead of
showing up as latency, and it spreads the load over 20 connections.
Here the whole arrival schedule is drawn from the seed *before* the
run, every request is timed from the instant it was **due**, how late
the generator actually ran is reported beside it (``lag``), and the
load rides on at most ``nproc`` connections (connection ``i`` prefers
server ``i``: 0 is the bootstrap leader, 1 a follower).

Two shapes:

* :func:`drive_open_loop` — independent users: submit on schedule
  whether or not earlier requests completed (also through an outage).
* :func:`drive_closed_loop` — callers that wait for a reply: each
  connection keeps a fixed number of requests outstanding.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.obs.reqtrace import RequestLog
from repro.serve.client import SessionClient
from repro.serve.loadgen import ZipfKeys

#: How long unanswered requests get after the last arrival before they
#: count as failed (covers one full failover: detection + view change).
DRAIN_TIMEOUT_S = 4.0
READ, WRITE = "get", "put"


def connection_count() -> int:
    """Load connections: one per core, two at most (leader + follower)."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Planned:
    """One request of the seeded schedule."""

    #: Seconds after the generator's start at which the request is due
    #: (0.0 throughout for closed-loop streams: due == submitted).
    due: float
    conn: int
    op: str
    key: str


@dataclass
class RequestRecord:
    """What happened to one planned request (loop-clock stamps)."""

    conn: int
    op: str
    key: str
    due: float
    submitted: float
    acked: Optional[float] = None
    ok: bool = False
    served: str = ""
    result: Any = None

    @property
    def failed(self) -> bool:
        return self.acked is None or not self.ok

    @property
    def latency(self) -> float:
        """Seconds from the due instant; +inf for a failed request."""
        if self.failed:
            return math.inf
        return self.acked - self.due


@dataclass
class LoadResult:
    """Everything one load run observed, client side."""

    records: List[RequestRecord] = field(default_factory=list)
    #: Monotonic start/end of the submission window.
    start: float = 0.0
    end: float = 0.0
    #: Requests still unanswered when the last arrival had been sent.
    outstanding_at_end: int = 0
    retries: int = 0
    reconnects: int = 0
    cached_responses: int = 0
    local_reads: int = 0
    #: (client_id, seq, op, args) per acknowledged write — the ground
    #: truth ``verify_serve_run`` checks the node journals against.
    acked_writes: List[Tuple[str, int, str, Tuple[Any, ...]]] = field(
        default_factory=list
    )
    request_events: List[Any] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if record.failed)

    @property
    def ack_times(self) -> List[float]:
        return [r.acked for r in self.records if not r.failed]

    def latencies(self, op: Optional[str] = None) -> List[float]:
        return [r.latency for r in self.records if op is None or r.op == op]

    def lags(self) -> List[float]:
        """How late each request left the generator."""
        return [r.submitted - r.due for r in self.records]


def value_for(key: str, index: int, value_bytes: int) -> str:
    """The value written by the ``index``-th request: names its key, so
    a read that returns another key's value is detectable."""
    return f"{key}|{index}|".ljust(value_bytes, "v")


def plan_open_loop(
    seed: int,
    rate_rps: float,
    duration_s: float,
    read_fraction: float,
    keys: int = 100,
    zipf_s: float = 1.1,
    conns: int = 2,
) -> List[Planned]:
    """Poisson arrivals at ``rate_rps`` total, Zipf keys, seeded."""
    rng = random.Random(f"open:{seed}")
    zipf = ZipfKeys(keys, zipf_s, rng)
    plan: List[Planned] = []
    due = rng.expovariate(rate_rps)
    while due < duration_s:
        op = READ if rng.random() < read_fraction else WRITE
        plan.append(Planned(due, rng.randrange(conns), op, zipf.sample()))
        due += rng.expovariate(rate_rps)
    return plan


def closed_loop_streams(
    seed: int,
    read_fraction: float,
    keys: int = 100,
    zipf_s: float = 1.1,
    conns: int = 2,
):
    """One endless seeded (op, key) stream per connection."""
    def stream(conn: int):
        rng = random.Random(f"closed:{seed}:{conn}")
        zipf = ZipfKeys(keys, zipf_s, rng)
        while True:
            op = READ if rng.random() < read_fraction else WRITE
            yield Planned(0.0, conn, op, zipf.sample())

    return [stream(conn) for conn in range(conns)]


def _submit(
    client: Any,
    planned: Planned,
    due: float,
    value_bytes: int,
    result: LoadResult,
    pending: set,
    loop: asyncio.AbstractEventLoop,
    on_ack=None,
) -> None:
    record = RequestRecord(
        conn=planned.conn, op=planned.op, key=planned.key,
        due=due, submitted=loop.time(),
    )
    result.records.append(record)
    if planned.op == READ:
        fut = client.submit(READ, planned.key)
    else:
        fut = client.submit(
            WRITE, planned.key,
            value_for(planned.key, len(result.records), value_bytes),
        )

    def done(f: "asyncio.Future") -> None:
        pending.discard(f)
        if f.cancelled() or f.exception() is not None:
            return
        response = f.result()
        record.acked = loop.time()
        record.ok = bool(response.ok)
        record.served = response.served
        record.result = response.result
        if on_ack is not None:
            on_ack(planned.conn)

    pending.add(fut)
    fut.add_done_callback(done)


async def _drain(pending: set, timeout_s: float) -> None:
    if pending:
        await asyncio.wait(set(pending), timeout=timeout_s)


async def drive_open_loop(
    clients: Sequence[Any],
    plan: Sequence[Planned],
    *,
    value_bytes: int = 64,
    drain_timeout_s: float = DRAIN_TIMEOUT_S,
) -> LoadResult:
    """Submit ``plan`` on schedule; latency counts from each due time.

    After every wake-up *all* requests already due are submitted, each
    stamped with its own due instant: a stall of the generator (or of
    this process) delays them on the wire but not in the accounting.
    """
    loop = asyncio.get_running_loop()
    result = LoadResult()
    pending: set = set()
    result.start = start = loop.time()
    index = 0
    while index < len(plan):
        delay = start + plan[index].due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        now = loop.time()
        while index < len(plan) and start + plan[index].due <= now:
            planned = plan[index]
            _submit(
                clients[planned.conn], planned, start + planned.due,
                value_bytes, result, pending, loop,
            )
            index += 1
    result.end = loop.time()
    result.outstanding_at_end = len(pending)
    await _drain(pending, drain_timeout_s)
    return result


async def drive_closed_loop(
    clients: Sequence[Any],
    streams: Sequence[Any],
    *,
    outstanding: int,
    duration_s: float,
    value_bytes: int = 64,
    drain_timeout_s: float = DRAIN_TIMEOUT_S,
) -> LoadResult:
    """Keep ``outstanding`` requests in flight per connection."""
    loop = asyncio.get_running_loop()
    result = LoadResult()
    pending: set = set()
    result.start = loop.time()
    deadline = result.start + duration_s

    def submit_next(conn: int) -> None:
        now = loop.time()
        if now >= deadline:
            return
        _submit(
            clients[conn], next(streams[conn]), now, value_bytes, result,
            pending, loop, on_ack=submit_next,
        )

    for conn in range(len(clients)):
        for _ in range(outstanding):
            submit_next(conn)
    await asyncio.sleep(max(0.0, deadline - loop.time()))
    result.end = loop.time()
    result.outstanding_at_end = len(pending)
    await _drain(pending, drain_timeout_s)
    return result


async def with_sessions(
    addresses: Sequence[Tuple[str, int]],
    seed: int,
    conns: int,
    drive,
    *,
    retry_timeout_s: float,
    trace_requests: bool = False,
) -> LoadResult:
    """Open ``conns`` pinned sessions, run ``drive(clients)``, close them
    and fold the sessions' own counters into the result."""
    reqlog = RequestLog(enabled=trace_requests)
    clients = [
        SessionClient(
            f"bench{seed}-{conn}", list(addresses),
            retry_timeout_s=retry_timeout_s, prefer=conn, reqlog=reqlog,
        )
        for conn in range(conns)
    ]
    try:
        for client in clients:
            await client.connect()
        result = await drive(clients)
        for client in clients:
            result.retries += client.retries
            result.reconnects += client.reconnects
            result.cached_responses += client.cached_responses
            result.local_reads += client.local_reads
            result.acked_writes.extend(
                (client.client_id, seq, op, args)
                for seq, op, args in client.acked_writes
            )
        result.request_events = reqlog.records()
        return result
    finally:
        for client in clients:
            await client.close()
