import asyncio
import math
import time
from types import SimpleNamespace

import pytest

from loadgen import (
    Planned,
    closed_loop_streams,
    drive_closed_loop,
    drive_open_loop,
    plan_open_loop,
)


class FakeClient:
    """Answers every request ``service_s`` after it was submitted."""

    def __init__(self, service_s=0.001, ok=True, answer=True):
        self.service_s, self.ok, self.answer = service_s, ok, answer
        self.submitted = 0

    def submit(self, op, *args):
        loop = asyncio.get_running_loop()
        self.submitted += 1
        fut = loop.create_future()
        if self.answer:
            response = SimpleNamespace(ok=self.ok, served="ordered", result=None)
            loop.call_later(
                self.service_s,
                lambda: fut.done() or fut.set_result(response),
            )
        return fut


def test_plan_is_a_function_of_the_seed():
    a = plan_open_loop(7, 500.0, 2.0, 0.5)
    assert a == plan_open_loop(7, 500.0, 2.0, 0.5)
    assert a != plan_open_loop(8, 500.0, 2.0, 0.5)
    assert 800 < len(a) < 1200
    assert all(0 <= p.due < 2.0 and p.conn in (0, 1) for p in a)
    assert [p.due for p in a] == sorted(p.due for p in a)
    reads = sum(p.op == "get" for p in a) / len(a)
    assert 0.4 < reads < 0.6


def test_latency_counts_from_the_due_time_through_a_generator_stall():
    # 100 requests, one every 2 ms; the loop is blocked for 150 ms from
    # t = 50 ms.  The service itself never takes more than ~1 ms.
    plan = [Planned(0.002 * i, 0, "get", "k1") for i in range(100)]

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.call_later(0.05, time.sleep, 0.15)
        return await drive_open_loop([FakeClient()], plan)

    result = asyncio.run(scenario())
    assert result.attempted == 100 and result.failed == 0
    stalled = [r for r in result.records if r.submitted - r.due > 0.05]
    assert stalled, "the stall must show up as generator lag"
    # Stamped at submit() the stall would vanish for the requests it
    # held back: once sent, each is served in ~1 ms.
    assert max(r.acked - r.submitted for r in stalled) < 0.05
    # Timed from the due instant, those same requests carry the stall.
    assert max(r.latency for r in stalled) > 0.1
    assert max(result.lags()) > 0.1
    # Every request keeps its own due time; none is re-stamped to "now".
    assert [r.due - result.start for r in result.records] == pytest.approx(
        [p.due for p in plan], abs=1e-6
    )


def test_unanswered_and_errored_requests_are_failures_with_infinite_latency():
    plan = [Planned(0.001 * i, i % 2, "put", "k1") for i in range(10)]

    async def scenario():
        silent = FakeClient(answer=False)
        erroring = FakeClient(ok=False)
        return await drive_open_loop(
            [silent, erroring], plan, drain_timeout_s=0.05
        )

    result = asyncio.run(scenario())
    assert result.attempted == 10 and result.failed == 10
    assert all(math.isinf(latency) for latency in result.latencies())
    assert result.outstanding_at_end >= 5  # the silent connection's backlog


def test_closed_loop_keeps_the_window_full_and_stops_at_the_deadline():
    clients = [FakeClient(service_s=0.005), FakeClient(service_s=0.005)]

    async def scenario():
        return await drive_closed_loop(
            clients, closed_loop_streams(3, 0.1), outstanding=4, duration_s=0.2,
        )

    result = asyncio.run(scenario())
    assert result.failed == 0
    # 2 connections x 4 outstanding / 5 ms service ~ 1600/s for 0.2 s.
    assert 100 < result.attempted < 400
    assert all(r.submitted <= result.start + 0.2 + 0.01 for r in result.records)
    writes = sum(r.op == "put" for r in result.records) / result.attempted
    assert writes > 0.75
