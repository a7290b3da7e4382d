"""Live fast-path ablation — goodput with and without frame coalescing.

Runs the live loopback cluster (DESIGN.md §5g) at small, medium, and
large payloads, once with batching disabled (one frame per syscall —
byte-identical to the pre-fastpath wire) and once with the coalescing
fast path on.  Small payloads are syscall-bound, so that is where
batching pays: the acceptance gate is 64 B goodput >= 1.5x the
unbatched baseline.  Large payloads saturate the loopback with either
path; the sweep reports them to show batching does not regress.

Writes ``BENCH_live_fastpath.json``.  ``--quick`` shrinks durations for
a CI smoke run (gate reported but not asserted — a loaded runner's
loopback numbers are too noisy to fail the build on).  ``--timeline``
additionally runs one instrumented batched point and writes the merged
span timeline for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from repro.live.runner import LiveClusterSpec, run_live_cluster
from repro.metrics import format_table

PAYLOADS = (64, 1024, 8192)

#: Closed-loop window per sender.  Small on purpose: the sweep's job is
#: to isolate per-frame overhead (syscall + drain await + packet), and a
#: shallow pipeline keeps run-to-run variance tight on a shared host.
WINDOW = 16
PROCESSES = 3
SENDERS = 3
DURATION_S = 3.0
QUICK_DURATION_S = 1.0
#: Full runs repeat each arm and keep the best goodput — the standard
#: guard against scheduler interference on a loopback benchmark.
REPEATS = 2

#: Batch-frame caps for the batched arm; mirrors the sim defaults.
#: (When a flush happens is the transport's own business: DESIGN §5g.)
BATCH_BYTES = 60_000
BATCH_MESSAGES = 64

#: The acceptance gate from the issue.
MIN_SPEEDUP_64B = 1.5


def _spec(
    payload_bytes: int,
    batched: bool,
    duration_s: float,
    spans: bool = False,
) -> LiveClusterSpec:
    return LiveClusterSpec(
        processes=PROCESSES,
        senders=SENDERS,
        t=1,
        message_bytes=payload_bytes,
        duration_s=duration_s,
        window=WINDOW,
        sim_compare=False,
        spans=spans,
        batch_bytes=BATCH_BYTES if batched else None,
        batch_messages=BATCH_MESSAGES if batched else None,
    )


def run_point(
    payload_bytes: int, batched: bool, duration_s: float
) -> Dict[str, Any]:
    live = run_live_cluster(_spec(payload_bytes, batched, duration_s))
    assert live.order_ok, (
        f"{payload_bytes} B {'batched' if batched else 'baseline'}: "
        f"{live.order_error}"
    )
    stats = [record["stats"] for record in live.node_records.values()]
    flushes = sum(s["flushes"] for s in stats)
    frames = sum(s["frames_sent"] for s in stats)
    return {
        "payload_bytes": payload_bytes,
        "batched": batched,
        "goodput_mbps": round(live.metrics.aggregate_throughput_mbps, 3),
        "mean_latency_ms": round(live.metrics.mean_latency_s * 1e3, 2),
        "delivered": sum(s["deliveries"] for s in stats),
        "frames_sent": frames,
        "flushes": flushes,
        "frames_per_flush": round(frames / flushes, 2) if flushes else 0.0,
        "acks_ridden": sum(s["acks_ridden"] for s in stats),
        "batches_received": sum(s["batches_received"] for s in stats),
    }


def _best_of(
    payload_bytes: int, batched: bool, duration_s: float, repeats: int
) -> Dict[str, Any]:
    runs = [
        run_point(payload_bytes, batched, duration_s)
        for _ in range(repeats)
    ]
    return max(runs, key=lambda point: point["goodput_mbps"])


def run_sweep(
    duration_s: float,
    payloads: Sequence[int] = PAYLOADS,
    repeats: int = 1,
) -> Dict[str, Any]:
    points: Dict[str, Dict[str, Any]] = {}
    for payload_bytes in payloads:
        baseline = _best_of(payload_bytes, False, duration_s, repeats)
        batched = _best_of(payload_bytes, True, duration_s, repeats)
        # The disabled arm must really be the plain one-frame-per-write
        # wire — otherwise the speedup below compares nothing.
        assert baseline["flushes"] == baseline["frames_sent"]
        assert baseline["batches_received"] == 0
        speedup = (
            batched["goodput_mbps"] / baseline["goodput_mbps"]
            if baseline["goodput_mbps"] else 0.0
        )
        points[str(payload_bytes)] = {
            "baseline": baseline,
            "batched": batched,
            "speedup": round(speedup, 3),
        }
    return points


def build_payload(quick: bool) -> Dict[str, Any]:
    duration_s = QUICK_DURATION_S if quick else DURATION_S
    points = run_sweep(duration_s, repeats=1 if quick else REPEATS)
    payload: Dict[str, Any] = {
        "schema": "repro.bench_live_fastpath/1",
        "bench": "live_goodput_vs_batching",
        "config": {
            "processes": PROCESSES,
            "senders": SENDERS,
            "window": WINDOW,
            "duration_s": duration_s,
            "repeats": 1 if quick else REPEATS,
            "batch_bytes": BATCH_BYTES,
            "batch_messages": BATCH_MESSAGES,
            "quick": quick,
        },
        "points": points,
        "min_speedup_64b": MIN_SPEEDUP_64B,
    }
    if "64" in points:
        speedup = points["64"]["speedup"]
        payload["speedup_64b"] = speedup
        if not quick:
            assert speedup >= MIN_SPEEDUP_64B, (
                f"64 B batched goodput only {speedup:.2f}x baseline "
                f"(need >= {MIN_SPEEDUP_64B}x)"
            )
    return payload


def _print_sweep(points: Dict[str, Any]) -> None:
    rows = []
    for payload_bytes, point in sorted(
        points.items(), key=lambda kv: int(kv[0])
    ):
        base, batched = point["baseline"], point["batched"]
        rows.append([
            payload_bytes,
            f"{base['goodput_mbps']:.2f}",
            f"{batched['goodput_mbps']:.2f}",
            f"{point['speedup']:.2f}x",
            f"{batched['frames_per_flush']:.1f}",
            batched["acks_ridden"],
        ])
    print(format_table(
        ["payload B", "base Mb/s", "batched Mb/s", "speedup",
         "frames/flush", "acks ridden"],
        rows,
        title="Live fast path — goodput vs batching",
    ))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="live fast-path batching ablation"
    )
    parser.add_argument(
        "--out", default="BENCH_live_fastpath.json", metavar="PATH"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="short CI durations; gate reported, not asserted",
    )
    parser.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="also run one instrumented batched 64 B point and write "
             "its merged span timeline (jsonl)",
    )
    args = parser.parse_args(argv)

    payload = build_payload(quick=args.quick)
    _print_sweep(payload["points"])

    if args.timeline:
        duration_s = QUICK_DURATION_S if args.quick else DURATION_S
        live = run_live_cluster(_spec(64, True, duration_s, spans=True))
        assert live.order_ok, live.order_error
        if live.timeline is not None:
            live.timeline.write_jsonl(args.timeline)
            payload["timeline"] = args.timeline
            print(f"span timeline written to {args.timeline}")

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if "speedup_64b" in payload:
        print(f"64 B speedup: {payload['speedup_64b']:.2f}x "
              f"(gate {MIN_SPEEDUP_64B}x, "
              f"{'asserted' if not args.quick else 'reported only'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
