#!/usr/bin/env python3
"""The repo's one benchmark.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick] [--out FILE]

Launches real 3-process loopback clusters (``bench/workloads.py``),
times each layer alone (``bench/layers.py``), prints every metric by
name with its unit, checks that the outputs are correct and exits
non-zero if a correctness gate fails.  README.md has the definitions.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the (last)
workload run: the end-to-end metrics without ``--trace``, the per-layer
metrics with it.  A traced run is its own invocation and never the
source of an end-to-end number.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: A run that starts above this 1-minute load average is flagged noisy.
NOISY_LOAD = 1.0
#: Cluster launches per run whose median is ``setup_s``.
SETUPS = 3
QUICK_SECONDS = 2.0
#: A run shorter than this holds no whole 1 s window to rate.
MIN_SECONDS = 2.0


def _bootstrap() -> None:
    """Make ``repro`` (the program under test) importable, or refuse."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"bench/run.py: no program to measure: {SRC}/repro is missing\n"
        )
        raise SystemExit(2)
    for path in (BENCH_DIR, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _default_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def environment(quick: bool, seconds: float) -> Dict[str, Any]:
    load1 = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load1_at_start": load1,
        "noisy": load1 > NOISY_LOAD,
        "quick": quick,
        "comparable": not quick,
        "seconds": seconds,
        "injected_delay": "none: latency is processor + kernel time only",
    }


def _row(name: str, value: float, unit: str, extra: str = "") -> str:
    return f"  {name:<44} {value:>16.4f} {unit:<6} {extra}".rstrip()


def print_isolated(isolated: Dict[str, Dict[str, float]]) -> None:
    from layers import LAYER_NOTES
    from metrics import UNIT

    print("\n== isolated layer drives (median [q1, q3] over n repeats)")
    layer = None
    for name, summary in isolated.items():
        if summary["layer"] != layer:
            layer = summary["layer"]
            print(f" {layer}: moves {LAYER_NOTES[layer]}")
        print(_row(
            name, summary["median"], UNIT[name],
            f"[{summary['q1']:.4g}, {summary['q3']:.4g}] n={summary['n']}",
        ))


def end_to_end_metrics(outcome: Any, setups: List[float]) -> Dict[str, float]:
    return {
        "ops_per_s": outcome.ops_per_s,
        "op_p50_ms": outcome.op_p50_ms,
        "setup_s": statistics.median(setups),
    }


def per_layer_metrics(
    isolated: Dict[str, Dict[str, float]], untraced: Any, traced: Any
) -> Dict[str, float]:
    """Every per-layer metric; 0 where a layer takes no part in the
    workload (no server on a ring run, no detector on a healthy one)."""
    from metrics import PER_LAYER, SELF_TIME

    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    values.update({name: s["median"] for name, s in isolated.items()})
    values.update(untraced.layers)
    ops = max(1, traced.completed)
    attributed = 0.0
    for layer, metric in SELF_TIME.items():
        values[metric] = traced.self_us.get(layer, 0.0) / ops
        attributed += values[metric]
    values["trace.node_cpu_us_per_op"] = traced.node_cpu_us / ops
    # By construction: the layers' self times plus this equal the traced
    # run's node CPU per operation (event loop, sockets, journal, hooks).
    values["trace.unattributed_us_per_op"] = (
        values["trace.node_cpu_us_per_op"] - attributed
    )
    values["trace.spans_sampled"] = float(traced.spans_sampled)
    values["obs.trace_overhead_fraction"] = (
        1.0 - traced.ops_per_s / untraced.ops_per_s
    )
    base_cpu = untraced.layers["node.cpu_us_per_op"]
    values["obs.trace_cpu_overhead_fraction"] = (
        traced.layers["node.cpu_us_per_op"] / base_cpu - 1.0 if base_cpu else 0.0
    )
    for name in ("server.queue_ms", "ring.replication_ms",
                 "session.apply_ms", "server.respond_ms"):
        values[name] = traced.layers.get(name, 0.0)
    return values


def print_outcome(outcome: Any, label: str) -> None:
    from metrics import UNIT

    print(f"\n== {outcome.workload} [{label}] {outcome.seconds:g} s measured, "
          f"attempted {outcome.attempted}, failed {outcome.failed}, "
          f"failed_fraction {outcome.failed / max(1, outcome.attempted):.6f}")
    print(_row("ops_per_s", outcome.ops_per_s, "1/s",
               f"median of {outcome.windows} whole 1 s windows "
               f"({outcome.quiet_windows} quiet)"))
    print(_row("op_p50_ms", outcome.op_p50_ms, "ms", f"n={outcome.samples}"))
    print(_row("tail (not bounded)", outcome.op_tail_ms, "ms",
               f"at q={outcome.tail_quantile:.4f}; "
               + ", ".join(f"{k} {v:.3f}" for k, v in
                           outcome.detail.get("latency_ms", {}).items())))
    for name, value in outcome.layers.items():
        print(_row(name, value, UNIT[name]))
    for gate in outcome.gates:
        print(f"  gate {gate.name:<40} {'ok' if gate.ok else 'FAILED'}"
              + (f"  ({gate.detail})" if gate.detail and not gate.ok else ""))
    for note in outcome.notes:
        print(f"  note: {note}")


def run_one(
    name: str, seed: int, seconds: float, trace: bool, quick: bool,
    isolated: Optional[Dict[str, Dict[str, float]]],
) -> Dict[str, Any]:
    """One workload → its result document (and the human report)."""
    from metrics import TRACED, UNIT
    from workloads import MIN_QUIET, WORKLOADS, probe_setup, run_workload

    if trace:
        # Same code, same seed, half the time each: the traced half gives
        # self times, the untraced half the base they are compared with.
        half = max(MIN_SECONDS, seconds / 2)
        untraced = run_workload(name, seed, half, traced=False)
        traced = run_workload(name, seed, half, traced=True)
        print_outcome(untraced, "untraced half")
        print_outcome(traced, "traced half")
        metrics = per_layer_metrics(isolated or {}, untraced, traced)
        print(f"\n== {name} per-layer (traced run; never an end-to-end number)")
        for metric, value in metrics.items():
            if metric in TRACED:
                print(_row(metric, value, UNIT[metric]))
        outcomes = [untraced, traced]
    else:
        setups = [
            probe_setup(WORKLOADS[name], seed)
            for _ in range(0 if quick else SETUPS - 1)
        ]
        outcomes = [run_workload(name, seed, seconds, traced=False)]
        if outcomes[0].quiet_windows < MIN_QUIET and not quick:
            # The hypervisor robbed most of that run (README "Noise"):
            # measure once more and keep the run the host disturbed less.
            print(f"\n{name}: only {outcomes[0].quiet_windows} quiet windows; "
                  "measuring once more")
            outcomes.append(run_workload(name, seed, seconds, traced=False))
        outcome = min(outcomes, key=lambda o: (o.quiet_windows < MIN_QUIET, o.kept_steal))
        setups += [o.setup_s for o in outcomes]
        metrics = end_to_end_metrics(outcome, setups)
        print_outcome(outcome, "end to end, tracing off")
        print(_row("setup_s", metrics["setup_s"], "s",
                   f"median of {len(setups)} launches"))
        outcomes.remove(outcome)
        outcomes.insert(0, outcome)
    return {
        "workload": name,
        "why": WORKLOADS[name].why,
        # Every run made must be correct, also one that was measured again.
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "runs": len(outcomes),
        "metrics": {
            metric: {"value": value, "unit": UNIT[metric]}
            for metric, value in metrics.items()
        },
        "layers": {} if trace else outcomes[0].layers,
        "detail": [o.detail for o in outcomes],
        "gates": [
            {"name": g.name, "ok": g.ok, "detail": g.detail}
            for o in outcomes for g in o.gates
        ],
        "notes": [note for o in outcomes for note in o.notes],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable; default all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives arrivals, keys and op choice")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke: {QUICK_SECONDS:g} s per workload, flagged non-comparable")
    parser.add_argument("--out", metavar="FILE", help="also write the results as JSON")
    args = parser.parse_args(argv)

    _bootstrap()
    from layers import run_isolated
    from workloads import RUN_ROOT, WORKLOADS

    names = args.workload or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    seconds = QUICK_SECONDS if args.quick else (
        args.seconds if args.seconds is not None else _default_seconds()
    )
    if seconds < MIN_SECONDS:
        parser.error(f"--seconds must be at least {MIN_SECONDS:g}")
    # Reconnect warnings of loopback transports racing each other's
    # listen() are expected noise, not results.
    logging.getLogger("repro").setLevel(logging.ERROR)

    env = environment(args.quick, seconds)
    print(f"repro bench: n=3 processes, t=1, loopback TCP, no injected delay "
          f"({env['injected_delay']})")
    print(f"nproc={env['nproc']} python={env['python']} load1={env['load1_at_start']:.2f}"
          + (" NOISY (load above 1.0)" if env["noisy"] else "")
          + (" QUICK (not comparable)" if args.quick else "")
          + f" seed={args.seed} seconds={seconds:g} trace={args.trace}")

    started = time.monotonic()
    # The isolated drives belong to the full report and to traced runs;
    # a single end-to-end workload run does not pay for them.
    isolated = None
    if args.trace or not args.workload:
        isolated = run_isolated(quick=args.quick)
        print_isolated(isolated)
    results = [
        run_one(name, args.seed, seconds, bool(args.trace), args.quick, isolated)
        for name in names
    ]
    try:
        os.rmdir(RUN_ROOT)
    except OSError:
        pass
    document = {
        "schema": "repro.bench/1",
        "environment": env,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "isolated": isolated,
        "workloads": {result["workload"]: result for result in results},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    failed_gates = [
        f"{r['workload']}:{g['name']}" for r in results for g in r["gates"] if not g["ok"]
    ]
    print(f"\nwall {document['wall_s']:.1f} s; "
          + ("all correctness gates green" if not failed_gates
             else "FAILED gates: " + ", ".join(failed_gates)))
    last = results[-1]
    print(json.dumps({
        "correct": last["correct"], "attempted": last["attempted"],
        "failed": last["failed"], "metrics": last["metrics"],
    }))
    return 1 if failed_gates else 0


if __name__ == "__main__":
    sys.exit(main())
