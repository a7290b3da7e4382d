"""Open-loop load generator for the session service.

Unlike the k saturating closed-loop senders of the broadcast
benchmarks, this models the paper's intended workload shape — many
light clients — as an *open loop*: request arrival times are drawn
from a Poisson process at the configured offered rate and submitted on
schedule whether or not earlier requests completed, so queueing delay
shows up as client-visible latency instead of silently throttling the
offered load.  Keys follow a Zipf distribution (precomputed CDF +
bisection — no numpy dependency), and the offered rate is spread over
``sessions`` independent pipelined sessions with round-robin server
fan-in.
"""

from __future__ import annotations

import asyncio
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.reqtrace import RequestEvent, RequestLog
from repro.serve.client import SessionClient

if TYPE_CHECKING:  # the runner imports this module
    from repro.serve.runner import ServeSpec

#: Extra time after the last scheduled arrival to drain pending acks.
_DRAIN_GRACE_S = 2.0


class ZipfKeys:
    """Zipf(s) sampler over ``k0..k{n-1}`` via inverse-CDF bisection."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        self._rng = rng
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> str:
        return f"k{bisect_left(self._cdf, self._rng.random())}"


@dataclass
class LoadStats:
    """Aggregated client-visible results of one load point."""

    offered: int = 0
    completed: int = 0
    acks: int = 0
    retries: int = 0
    reconnects: int = 0
    cached_responses: int = 0
    local_reads: int = 0
    errors: int = 0
    timeouts: int = 0
    #: Client-visible latencies, seconds, completion order.
    latencies: List[float] = field(default_factory=list)
    #: Monotonic completion stamp of every ack (outage analysis).
    ack_times: List[float] = field(default_factory=list)
    #: Ground truth for the exactly-once battery:
    #: (client_id, seq, op, args) per acknowledged mutating request.
    acked_writes: List[Tuple[str, int, str, Tuple[Any, ...]]] = field(
        default_factory=list
    )
    #: Client-side request-trace events (``trace_requests`` runs);
    #: raw monotonic timestamps — the runner rebases them onto the
    #: merged timeline.  Not serialised by :meth:`to_dict`.
    request_events: List[RequestEvent] = field(default_factory=list)

    def percentile(self, q: float) -> Optional[float]:
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]

    def to_dict(self) -> Dict[str, Any]:
        mean = (
            sum(self.latencies) / len(self.latencies) if self.latencies else None
        )
        return {
            "offered": self.offered,
            "completed": self.completed,
            "acks": self.acks,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "cached_responses": self.cached_responses,
            "local_reads": self.local_reads,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "acked_writes": len(self.acked_writes),
            "latency_mean_s": mean,
            "latency_p50_s": self.percentile(0.50),
            "latency_p99_s": self.percentile(0.99),
        }


async def run_load(
    addresses: List[Tuple[str, int]],
    spec: "ServeSpec",
    rate_rps: float,
    *,
    client_prefix: str = "c",
) -> LoadStats:
    """Drive one open-loop load point against a serve cluster: the
    spec's load (sessions, duration, read mix, keys, values, retry
    timeout, seed, tracing) at ``rate_rps`` offered in total."""
    stats = LoadStats()
    loop = asyncio.get_running_loop()
    # One shared log across sessions: client ids disambiguate, and the
    # runner wants a single event stream to merge into the timeline.
    reqlog = RequestLog(enabled=spec.trace_requests)

    async def one_session(index: int) -> None:
        rng = random.Random((spec.seed << 16) ^ index)
        zipf = ZipfKeys(spec.keys, spec.zipf_s, rng)
        client = SessionClient(
            f"{client_prefix}{spec.seed}-{index}",
            addresses,
            retry_timeout_s=spec.retry_timeout_s,
            prefer=index,  # spread the fan-in round-robin over servers
            reqlog=reqlog,
        )
        await client.connect()
        value = "v" * spec.value_bytes
        rate = rate_rps / spec.sessions
        pending: set = set()
        start = loop.time()
        deadline = start + spec.duration_s
        next_arrival = start + rng.expovariate(rate)
        try:
            while next_arrival < deadline:
                delay = next_arrival - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                key = zipf.sample()
                # Stamp before submit(): the request's cost starts when
                # the client decides to send, encode + socket write
                # included.  This is also the instant the request trace
                # stamps "send", so the 5% cross-check compares like
                # with like.
                submitted = loop.time()
                if rng.random() < spec.read_fraction:
                    fut = client.submit("get", key)
                else:
                    fut = client.submit("put", key, value)
                stats.offered += 1

                def on_done(f: asyncio.Future, t0: float = submitted) -> None:
                    pending.discard(f)
                    if f.cancelled() or f.exception() is not None:
                        return
                    now = loop.time()
                    stats.completed += 1
                    stats.latencies.append(now - t0)
                    stats.ack_times.append(now)

                pending.add(fut)
                fut.add_done_callback(on_done)
                next_arrival += rng.expovariate(rate)
            if pending:
                done, still_pending = await asyncio.wait(
                    pending,
                    timeout=spec.retry_timeout_s * 3 + _DRAIN_GRACE_S,
                )
                stats.timeouts += len(still_pending)
        finally:
            stats.acks += client.acks
            stats.retries += client.retries
            stats.reconnects += client.reconnects
            stats.cached_responses += client.cached_responses
            stats.local_reads += client.local_reads
            stats.errors += client.errors
            stats.acked_writes.extend(
                (client.client_id, seq, op, args)
                for seq, op, args in client.acked_writes
            )
            await client.close()

    await asyncio.gather(*(one_session(i) for i in range(spec.sessions)))
    stats.request_events = reqlog.records()
    return stats
