"""Command-line interface: run paper experiments without writing code.

Usage (also via ``python -m repro``):

.. code-block:: console

    python -m repro run --protocol fsr --n 5 --senders 5 --messages 40
    python -m repro latency --max-n 10
    python -m repro compare --n 5
    python -m repro rounds --n 6 --k 2
    python -m repro chaos --seeds 50
    python -m repro figures

Every subcommand prints the same aligned tables the benchmark harnesses
produce, so CLI output can be diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import ClusterConfig, FSRConfig, build_cluster
from repro.analysis import ThroughputPrediction
from repro.metrics import collect_metrics, format_table
from repro.net import NetworkParams
from repro.rounds.analysis import (
    ROUND_PROTOCOLS,
    measure_latency,
    measure_throughput,
    round_factory,
)
from repro.rounds.fsr_round import fsr_latency_formula
from repro.workloads import KToNPattern, run_workload


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.batching import batching_config_from_flags
    from repro.errors import ConfigurationError

    protocol = args.protocol
    if args.shards > 1 and protocol == "fsr":
        protocol = "multiring"
    if protocol == "multiring":
        from repro.protocols.multiring.config import MultiRingConfig

        protocol_config = MultiRingConfig(
            shards=args.shards, fsr=FSRConfig(t=args.t)
        )
    elif protocol == "fsr":
        protocol_config = FSRConfig(t=args.t)
    else:
        protocol_config = None
    try:
        batching = batching_config_from_flags(
            args.batch_bytes, args.batch_messages, args.batch_delay
        )
    except ConfigurationError as exc:
        print(f"invalid batch config: {exc}", file=sys.stderr)
        return 2
    if batching is not None:
        return _run_packed(args, protocol, protocol_config, batching)
    cluster = build_cluster(
        ClusterConfig(
            n=args.n, protocol=protocol, protocol_config=protocol_config,
            seed=args.seed,
        )
    )
    pattern = KToNPattern.k_to_n(
        args.senders, args.n, args.messages, message_bytes=args.size
    )
    outcome = run_workload(cluster, pattern, max_time_s=args.max_time)
    metrics = collect_metrics(outcome)
    print(format_table(
        ["metric", "value"],
        [
            ["protocol", protocol],
            ["rings", args.shards],
            ["processes", args.n],
            ["senders", args.senders],
            ["messages/sender", args.messages],
            ["message bytes", args.size],
            ["throughput (Mb/s)", f"{metrics.completion_throughput_mbps:.1f}"],
            ["mean latency (ms)", f"{metrics.mean_latency_s * 1e3:.1f}"],
            ["p99 latency (ms)", f"{metrics.p99_latency_s * 1e3:.1f}"],
            ["fairness (Jain)", f"{metrics.fairness:.3f}"],
            ["simulated time (s)", f"{outcome.result.duration_s:.2f}"],
        ],
        title="k-to-n experiment",
    ))
    return 0


def _run_packed(
    args: argparse.Namespace, protocol: str, protocol_config, batching
) -> int:
    """``repro run`` with ``--batch-*``: packed senders over the protocol.

    Wraps every node's protocol in :class:`BatchingBroadcast` — the same
    packing the live transport's fast path applies at the frame level —
    and reports pack statistics next to goodput.
    """
    from repro.core.api import BroadcastListener
    from repro.core.batching import BatchingBroadcast

    cluster = build_cluster(
        ClusterConfig(
            n=args.n, protocol=protocol, protocol_config=protocol_config,
            seed=args.seed,
        )
    )
    count = [0]
    sources = {
        pid: BatchingBroadcast(
            cluster.sim, node.protocol, origin=pid, config=batching
        )
        for pid, node in cluster.nodes.items()
    }
    sources[0].set_listener(
        BroadcastListener(lambda *a: count.__setitem__(0, count[0] + 1))
    )
    cluster.start()
    cluster.run(until=0.05)
    start = cluster.sim.now
    for pid in range(args.senders):
        for _ in range(args.messages):
            sources[pid].broadcast(b"x" * args.size)
    for pid in range(args.senders):
        sources[pid].flush()
    total = args.messages * args.senders
    cluster.run_until(lambda: count[0] >= total, max_time_s=args.max_time)
    elapsed = cluster.sim.now - start
    packs = sum(s.stats_packs_sent for s in sources.values())
    packed = sum(s.stats_messages_packed for s in sources.values())
    print(format_table(
        ["metric", "value"],
        [
            ["protocol", f"{protocol} + packing"],
            ["rings", args.shards],
            ["processes", args.n],
            ["senders", args.senders],
            ["messages/sender", args.messages],
            ["message bytes", args.size],
            ["max pack bytes", batching.max_batch_bytes],
            ["max pack messages", batching.max_batch_messages],
            ["max pack delay (ms)", f"{batching.max_delay_s * 1e3:.2f}"],
            ["packs sent", packs],
            ["messages packed", packed],
            ["mean pack size", f"{packed / packs:.1f}" if packs else "-"],
            [
                "goodput (Mb/s)",
                f"{total * args.size * 8 / elapsed / 1e6:.1f}"
                if elapsed > 0 else "-",
            ],
            ["simulated time (s)", f"{cluster.sim.now:.2f}"],
        ],
        title="k-to-n experiment (packed)",
    ))
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    rows = []
    for n in range(2, args.max_n + 1):
        cluster = build_cluster(
            ClusterConfig(n=n, protocol="fsr", protocol_config=FSRConfig(t=args.t))
        )
        cluster.start()
        cluster.run(until=0.05)
        mid = cluster.broadcast(args.position % n, size_bytes=args.size)
        cluster.run_until(lambda: cluster.all_correct_delivered(1), max_time_s=60)
        latency = cluster.results().completion_time(mid) - 0.05
        rows.append([n, f"{latency * 1e3:.1f}"])
    print(format_table(
        ["n", "latency (ms)"], rows,
        title=f"Contention-free latency, {args.size} B messages (Figure 6)",
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    protocols = [
        "fsr", "fixed_sequencer", "moving_sequencer",
        "privilege", "communication_history", "destination_agreement",
    ]
    rows = []
    for protocol in protocols:
        cluster = build_cluster(ClusterConfig(n=args.n, protocol=protocol))
        pattern = KToNPattern.n_to_n(
            args.n, max(1, args.messages), message_bytes=args.size
        )
        outcome = run_workload(cluster, pattern, max_time_s=args.max_time)
        metrics = collect_metrics(outcome)
        rows.append([protocol, f"{metrics.completion_throughput_mbps:.1f}"])
    print(format_table(
        ["protocol", "Mb/s"], rows,
        title=f"{args.n}-to-{args.n} aggregate throughput, {args.size} B messages",
    ))
    return 0


def _cmd_rounds(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(ROUND_PROTOCOLS):
        factory = round_factory("fsr", t=args.t) if name == "fsr" else round_factory(name)
        result = measure_throughput(factory, args.n, args.k)
        latency = measure_latency(factory, args.n, 1 % args.n, max_rounds=5000)
        rows.append([name, f"{result.throughput:.3f}", latency])
    print(format_table(
        ["protocol", "msgs/round", "L(1) rounds"], rows,
        title=f"Round model: n={args.n}, k={args.k} saturating senders",
    ))
    formula = fsr_latency_formula(args.n, args.t, 1 % args.n)
    effective_t = FSRConfig(t=args.t).effective_t(args.n)
    clamped = "" if effective_t == args.t else f" (t = {effective_t}, clamped to n - 1)"
    print(f"\nFSR formula check: L(1) = 2n + t - 2 = {formula}{clamped}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    params = NetworkParams.fast_ethernet()
    prediction = ThroughputPrediction.for_paper_setup(
        params, n=args.n, message_bytes=args.size
    )
    print(format_table(
        ["quantity", "Mb/s"],
        [
            ["raw point-to-point goodput", f"{prediction.raw_mbps:.1f}"],
            ["FSR maximum throughput", f"{prediction.fsr_mbps:.1f}"],
            ["fixed sequencer maximum", f"{prediction.fixed_sequencer_mbps:.1f}"],
        ],
        title=f"Closed-form predictions (n={args.n}, {args.size} B messages)",
    ))
    return 0


def _cmd_chaos_live(args: argparse.Namespace) -> int:
    from repro.chaos.live import (
        LIVE_SCENARIOS,
        LiveChaosConfig,
        LiveSeedOutcome,
        run_live_campaign,
    )
    from repro.errors import ConfigurationError

    if args.fd_violation:
        print(
            "--fd-violation is simulator-only: a live run always uses the "
            "real heartbeat detector",
            file=sys.stderr,
        )
        return 2
    scenarios = (
        tuple(args.scenario)
        if args.scenario
        else ("crash_storm", "repeated_leader_crash")
    )
    unknown = sorted(set(scenarios) - set(LIVE_SCENARIOS))
    if unknown:
        print(
            f"scenario(s) not live-portable: {', '.join(unknown)} "
            f"(live supports: {', '.join(LIVE_SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    try:
        config = LiveChaosConfig(
            seeds=args.seeds if args.seeds is not None else 25,
            base_seed=args.base_seed,
            scenarios=scenarios,
            n=args.n if args.n is not None else 5,
            t=args.t if args.t is not None else 2,
        )
    except ConfigurationError as exc:
        print(f"invalid live campaign config: {exc}", file=sys.stderr)
        return 2

    print(
        f"live chaos: {config.seeds} seeds over {', '.join(scenarios)} "
        f"(n={config.n}, t={config.t}, SIGKILL mid-run, ~{config.duration_s:.0f}s "
        "traffic per run)...",
        flush=True,
    )

    def progress(outcome: LiveSeedOutcome) -> None:
        marker = "FAIL" if outcome.failed else "ok"
        outage = (
            "-" if outcome.outage_ms is None else f"{outcome.outage_ms:7.1f}"
        )
        suspicion = (
            f"  FALSE-SUSPECT {outcome.false_suspicions}"
            if outcome.false_suspicions
            else ""
        )
        print(
            f"  seed {outcome.seed:>4}  {outcome.scenario:<24} {marker:<5}"
            f" kills {len(outcome.killed)}  outage {outage} ms"
            f"  wall {outcome.wall_s:5.1f} s{suspicion}",
            flush=True,
        )

    report = run_live_campaign(
        config, progress=progress if args.verbose else None
    )
    return _report_campaign(
        args, report, "Live chaos campaign", "live campaign",
        "BENCH_chaos_live.json",
    )


def _report_campaign(
    args: argparse.Namespace, report, title: str, label: str,
    default_bench: str,
) -> int:
    """The tail both ``repro chaos`` flavours share: per-scenario
    table, every failing seed with its reproducer, the report/bench
    files, the verdict line and the exit code."""
    summary = report.scenario_summary()
    # Whatever the outcomes tally (kills, false suspicions; nothing on
    # the simulator) sits between the fixed columns.
    fixed = ("seeds", "failures", "mean_outage_ms", "max_outage_ms")
    tallies = [
        name for name in next(iter(summary.values()), {}) if name not in fixed
    ]

    def ms(value) -> str:
        return "-" if value is None else f"{value:.1f}"

    print(format_table(
        ["scenario", "seeds", "failures"]
        + [name.replace("_", " ") for name in tallies]
        + ["mean outage (ms)", "max outage (ms)"],
        [
            [name, row["seeds"], row["failures"]]
            + [row[tally] for tally in tallies]
            + [ms(row["mean_outage_ms"]), ms(row["max_outage_ms"])]
            for name, row in sorted(summary.items())
        ],
        title=(
            f"{title}: {len(report.outcomes)} seeds, n={report.config.n}, "
            f"t={report.config.t}, base seed {report.config.base_seed}"
        ),
    ))

    for outcome in report.unsound_outcomes:
        if not outcome.verdict.ok:
            print(
                f"\n[unsound, documented] seed {outcome.seed} "
                f"({outcome.scenario}): {outcome.verdict.summary()}"
            )
    for outcome in report.failures:
        print(f"\nFAIL seed {outcome.seed} ({outcome.scenario}):")
        print(f"  {outcome.verdict.summary()}")
        if getattr(outcome, "false_suspicions", None):
            print(
                f"  false suspicions: nodes {outcome.false_suspicions} "
                "evicted with no kill and no partition excuse"
            )
        # Simulated failures come shrunk; a live schedule replays as is
        # (live or on the simulator).
        minimal = getattr(outcome, "minimal", None)
        print(f"  {'minimal reproducer' if minimal else 'schedule'}:")
        for line in (minimal or outcome.schedule).reproducer().splitlines():
            print(f"    {line}")

    if args.report:
        report.write_json(args.report)
        print(f"\nfull report written to {args.report}")
    bench = args.bench if args.bench is not None else default_bench
    if bench:
        report.write_bench(bench)
        print(f"bench record written to {bench}")

    verdict = "GREEN" if report.ok else "RED"
    print(f"\n{label} {verdict}: {len(report.failures)} failing seed(s)")
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.live:
        if args.shards > 1:
            print("--shards is simulator-only for chaos runs", file=sys.stderr)
            return 2
        return _cmd_chaos_live(args)

    from repro.chaos import (
        CampaignConfig,
        SeedOutcome,
        run_campaign,
    )
    from repro.chaos.schedules import (
        DEFAULT_SCENARIOS,
        MULTIRING_SCENARIOS,
        SCENARIOS,
        UNSOUND_SCENARIOS,
    )
    from repro.errors import ConfigurationError

    multiring = args.shards > 1
    default_scenarios = MULTIRING_SCENARIOS if multiring else DEFAULT_SCENARIOS
    scenarios = tuple(args.scenario) if args.scenario else default_scenarios
    if args.fd_violation:
        scenarios += tuple(s for s in UNSOUND_SCENARIOS if s not in scenarios)
    known = set(SCENARIOS) | set(UNSOUND_SCENARIOS)
    unknown = sorted(set(scenarios) - known)
    if unknown:
        print(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(available: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2
    unsound_requested = sorted(set(scenarios) & set(UNSOUND_SCENARIOS))
    if unsound_requested and not args.fd_violation:
        print(
            f"scenario(s) {', '.join(unsound_requested)} violate the "
            "perfect-failure-detector assumption; pass --fd-violation to "
            "opt in",
            file=sys.stderr,
        )
        return 2

    try:
        config = CampaignConfig(
            seeds=args.seeds if args.seeds is not None else 50,
            base_seed=args.base_seed,
            scenarios=scenarios,
            n=args.n if args.n is not None else 6,
            t=args.t if args.t is not None else 2,
            protocol="multiring" if multiring else "fsr",
            shards=args.shards if multiring else 2,
        )
    except ConfigurationError as exc:
        print(f"invalid campaign config: {exc}", file=sys.stderr)
        return 2

    def progress(outcome: SeedOutcome) -> None:
        marker = "ok"
        if outcome.failed:
            marker = "FAIL"
        elif not outcome.verdict.ok:
            marker = "unsound"
        print(
            f"  seed {outcome.seed:>4}  {outcome.scenario:<24} {marker:<8}"
            f" sim {outcome.sim_duration_s:6.2f} s",
            flush=True,
        )

    report = run_campaign(config, progress=progress if args.verbose else None)
    return _report_campaign(
        args, report, "Chaos campaign", "campaign", "BENCH_chaos.json"
    )


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.live.runner import LiveClusterSpec, run_live_benchmark

    try:
        spec = LiveClusterSpec(
            processes=args.processes,
            senders=args.senders,
            t=args.t,
            shards=args.shards,
            message_bytes=args.size,
            duration_s=args.duration,
            window=args.window,
            sim_compare=not args.no_sim,
            spans=args.spans or args.timeline is not None,
            log_level=args.log_level,
            batch_bytes=args.batch_bytes,
            batch_messages=args.batch_messages,
            batch_delay_s=args.batch_delay,
        )
    except ReproError as exc:
        print(f"invalid live spec: {exc}", file=sys.stderr)
        return 2

    print(
        f"launching {spec.processes} node processes on {spec.host} "
        f"({spec.senders} sender(s), {spec.message_bytes} B messages, "
        f"{spec.duration_s:.0f}s"
        + (", spans on" if spec.spans else "")
        + ")...",
        flush=True,
    )
    try:
        payload = run_live_benchmark(
            spec, out_path=args.out, timeline_path=args.timeline
        )
    except ReproError as exc:
        print(f"live run failed: {exc}", file=sys.stderr)
        return 1

    live = payload["live"]["metrics"]
    rows = [
        ["processes", spec.processes],
        ["rings", spec.shards],
        ["senders", spec.senders],
        ["message bytes", spec.message_bytes],
        ["messages completed", live["messages_completed"]],
        ["live throughput (Mb/s)", f"{live['completion_throughput_mbps']:.1f}"],
        ["live mean latency (ms)", f"{live['mean_latency_s'] * 1e3:.1f}"],
        ["live p99 latency (ms)", f"{live['p99_latency_s'] * 1e3:.1f}"],
    ]
    node_stats = payload["live"]["node_stats"].values()
    if any(s.get("batches_sent") for s in node_stats):
        flushes = sum(s["flushes"] for s in node_stats)
        frames = sum(s["frames_sent"] for s in node_stats)
        rows.append(["tx flushes (syscalls)", flushes])
        rows.append([
            "frames per flush", f"{frames / flushes:.1f}" if flushes else "-"
        ])
        rows.append([
            "acks ridden on data",
            sum(s["acks_ridden"] for s in node_stats),
        ])
    if payload["sim"] is not None:
        sim = payload["sim"]["metrics"]
        rows.append(
            ["sim throughput (Mb/s)", f"{sim['completion_throughput_mbps']:.1f}"]
        )
        rows.append(
            ["sim mean latency (ms)", f"{sim['mean_latency_s'] * 1e3:.1f}"]
        )
    rows.append(["model FSR max (Mb/s)", f"{payload['model']['fsr_mbps']:.1f}"])
    order = payload["order_check"]
    rows.append(["total order", "OK" if order["ok"] else "VIOLATED"])
    print(format_table(["metric", "value"], rows, title="live loopback cluster"))
    breakdown = payload["live"].get("stage_breakdown")
    if breakdown is not None:
        from repro.obs.analyze import StageBreakdown

        print()
        print(StageBreakdown.from_dict(breakdown).render_table())
    if not order["ok"]:
        print(f"order check failed: {order['error']}", file=sys.stderr)
        return 1
    if payload["timed_out"]:
        print("warning: at least one node hit its run cap before "
              "quiescence", file=sys.stderr)
    print(f"\nbench record written to {args.out}")
    if args.timeline:
        print(f"merged span timeline written to {args.timeline}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.serve.runner import ServeSpec, run_serve_benchmark

    try:
        spec = ServeSpec(
            processes=args.processes,
            t=args.t,
            lease_s=args.lease,
            heartbeat_timeout_s=args.heartbeat_timeout,
            rates=(
                [float(r) for r in args.rate]
                if args.rate
                else [100.0, 300.0, 600.0]
            ),
            kill_leader=not args.no_kill,
            kill_rate=args.kill_rate,
            duration_s=args.duration,
            sessions=args.sessions,
            read_fraction=args.read_fraction,
            keys=args.keys,
            zipf_s=args.zipf,
            value_bytes=args.value_bytes,
            retry_timeout_s=args.retry_timeout,
            seed=args.seed,
            trace_requests=args.trace_requests,
            metrics_port=args.metrics_port,
            profile_dir=args.profile,
            log_level=args.log_level,
        )
    except (ReproError, ValueError) as exc:
        print(f"invalid serve spec: {exc}", file=sys.stderr)
        return 2

    points = len(spec.rates) + (1 if spec.kill_leader else 0)
    print(
        f"serve benchmark: {spec.processes} nodes, {spec.sessions} sessions, "
        f"{points} load point(s) x {spec.duration_s:.0f}s"
        + (", leader SIGKILL mid-load" if spec.kill_leader else "")
        + (", request tracing on" if spec.trace_requests else "")
        + (", live /metrics on" if spec.metrics_port is not None else "")
        + "...",
        flush=True,
    )
    try:
        payload = run_serve_benchmark(
            spec,
            out_path=args.out,
            timeline_path=args.timeline,
            prom_path=args.prom,
        )
    except ReproError as exc:
        print(f"serve benchmark failed: {exc}", file=sys.stderr)
        return 1

    rows = []
    for point in payload["curve"]:
        load = point["load"]
        rows.append([
            f"{point['offered_rps']:.0f}",
            "-" if point["achieved_rps"] is None
            else f"{point['achieved_rps']:.0f}",
            _ms(load["latency_p50_s"]),
            _ms(load["latency_p99_s"]),
            load["retries"],
            load["cached_responses"],
            load["local_reads"],
            "-",
        ])
    kill = payload["kill_point"]
    if kill is not None:
        load = kill["load"]
        rows.append([
            f"{kill['offered_rps']:.0f} (kill)",
            "-" if kill["achieved_rps"] is None
            else f"{kill['achieved_rps']:.0f}",
            _ms(load["latency_p50_s"]),
            _ms(load["latency_p99_s"]),
            load["retries"],
            load["cached_responses"],
            load["local_reads"],
            "-" if kill["outage_s"] is None else f"{kill['outage_s'] * 1e3:.0f}",
        ])
    print(format_table(
        ["offered rps", "achieved", "p50 (ms)", "p99 (ms)", "retries",
         "cached", "local reads", "outage (ms)"],
        rows,
        title=(
            f"session service: {spec.processes} nodes, lease "
            f"{spec.lease_s:.1f}s, {spec.read_fraction:.0%} reads"
        ),
    ))
    if kill is not None and None not in (
        kill["outage_s"], kill["detect_s"], kill["view_change_s"]
    ):
        outage, detect, change = (
            kill[key] * 1e3 for key in ("outage_s", "detect_s", "view_change_s")
        )
        print(
            f"failover: outage {outage:.0f} ms = detect {detect:.0f} + view "
            f"change {change:.0f} + re-dial, re-broadcast, session reconnect "
            f"{outage - detect - change:.0f}"
        )
    all_points = payload["curve"] + ([kill] if kill else [])
    for point in all_points:
        if point.get("request_breakdown"):
            from repro.obs.reqtrace import RequestBreakdown

            print()
            print(f"offered {point['offered_rps']:.0f} rps"
                  + (" (kill)" if point.get("killed") is not None else "")
                  + ":")
            print(
                RequestBreakdown.from_dict(
                    point["request_breakdown"]
                ).render_table()
            )
    parity = [
        point["scrape_parity_ok"]
        for point in all_points
        if point.get("scrape_parity_ok") is not None
    ]
    if parity:
        print(
            "\nlive /metrics scrape parity: "
            + ("OK" if all(parity) else "DIVERGED")
        )
    if args.timeline:
        print(f"merged trace timeline written to {args.timeline}")
    if args.prom:
        print(f"mid-load Prometheus scrape written to {args.prom}")
    violations = [
        v
        for point in all_points
        for v in point["violations"]
    ]
    for violation in violations:
        print(f"INVARIANT VIOLATED: {violation}", file=sys.stderr)
    verdict = "GREEN" if payload["invariants_ok"] else "RED"
    print(f"\nexactly-once battery {verdict}; bench record written to {args.out}")
    return 0 if payload["invariants_ok"] else 1


def _ms(value) -> str:
    return "-" if value is None else f"{value * 1e3:.1f}"


def _cmd_live_node(args: argparse.Namespace) -> int:
    # Internal: one cluster member, spawned by ``repro live``.
    import json as _json

    from repro.live.node import LiveNodeConfig, run_node

    with open(args.config) as fh:
        config = LiveNodeConfig.from_dict(_json.load(fh))
    record = run_node(config)
    with open(args.out, "w") as fh:
        _json.dump(record, fh)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json as _json
    import os as _os

    from repro.errors import ReproError
    from repro.obs.analyze import (
        link_utilization,
        prometheus_snapshot,
        render_link_table,
        ring_breakdowns,
        stage_breakdown,
    )
    from repro.obs.journal import Timeline

    if not _os.path.exists(args.timeline):
        print(f"timeline not found: {args.timeline}", file=sys.stderr)
        return 2
    timeline = Timeline.load_jsonl(args.timeline)
    if not timeline.events:
        print(f"no span events in {args.timeline}", file=sys.stderr)
        return 2
    try:
        breakdown = stage_breakdown(timeline)
    except ReproError as exc:
        print(f"stage breakdown failed: {exc}", file=sys.stderr)
        return 1

    requests_bd = None
    if timeline.requests:
        from repro.obs.reqtrace import request_breakdown

        try:
            requests_bd = request_breakdown(timeline.requests)
        except ReproError as exc:
            print(f"request breakdown failed: {exc}", file=sys.stderr)
            return 1

    rings = timeline.rings()
    print(
        f"timeline: {len(timeline.events)} span events, "
        f"{len(timeline.messages())} messages, "
        + (f"{len(timeline.requests)} request events, " if timeline.requests
           else "")
        + f"{len(timeline.nodes())} nodes, "
        + (f"{len(rings)} rings, " if rings else "")
        + f"{timeline.duration_s:.3f}s"
        + (f", {timeline.dropped} spans dropped" if timeline.dropped else "")
    )
    print()
    print(breakdown.render_table())
    if requests_bd is not None:
        print()
        print(requests_bd.render_table())
    per_ring = sorted(ring_breakdowns(timeline).items())
    for ring, ring_bd in per_ring:
        print()
        print(f"ring {ring}:")
        print(ring_bd.render_table())
    links = link_utilization(timeline)
    print()
    print(render_link_table(links))
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prometheus_snapshot(timeline, breakdown, requests_bd))
        print(f"\nPrometheus snapshot written to {args.prom}")
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(
                {
                    "schema": "repro.obs_report/1",
                    "stage_breakdown": breakdown.to_dict(),
                    "request_breakdown": (
                        requests_bd.to_dict()
                        if requests_bd is not None
                        else None
                    ),
                    "spans_dropped": timeline.dropped,
                    "ring_stage_breakdowns": {
                        str(ring): ring_bd.to_dict() for ring, ring_bd in per_ring
                    },
                    "links": [link.to_dict() for link in links],
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"JSON report written to {args.json}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    # Delegate to the example script's sections to avoid duplication.
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "examples" / "paper_figures.py"
    if not script.exists():
        print("examples/paper_figures.py not found; run from a source checkout",
              file=sys.stderr)
        return 1
    spec = importlib.util.spec_from_file_location("paper_figures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    module.main()
    return 0


def _add_batch_flags(sub: argparse.ArgumentParser) -> None:
    """The shared ``--batch-*`` trio: message packing / frame coalescing.

    On ``repro run`` they wrap the protocol in the simulator's
    ``BatchingBroadcast``; on ``repro live`` they arm the transport fast
    path (DESIGN.md §5g).  Setting any one enables batching with the
    others at their defaults; nonpositive values are rejected with the
    same ``ConfigurationError`` on both paths.  ``--batch-delay`` is
    the simulator's dial: the live transport flushes when the
    event-loop turn ends and has no timer to set.
    """
    sub.add_argument("--batch-bytes", type=int, default=None,
                     help="flush a batch at this many payload bytes "
                          "(default 60000 when batching is on)")
    sub.add_argument("--batch-messages", type=int, default=None,
                     help="flush a batch at this many messages "
                          "(default 64 when batching is on)")
    sub.add_argument("--batch-delay", type=float, default=None,
                     help="sim only: max seconds the head message "
                          "waits before its pack flushes (default "
                          "0.002); the live transport has no timer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FSR total order broadcast (DSN 2006) experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one k-to-n experiment")
    run.add_argument("--protocol", default="fsr")
    run.add_argument("--shards", type=int, default=1,
                     help="concurrent FSR rings; >1 switches to the "
                          "multiring protocol (ISS-style bucket "
                          "multiplexing)")
    run.add_argument("--n", type=int, default=5)
    run.add_argument("--t", type=int, default=1)
    run.add_argument("--senders", type=int, default=5)
    run.add_argument("--messages", type=int, default=20)
    run.add_argument("--size", type=int, default=100_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-time", type=float, default=600.0)
    _add_batch_flags(run)
    run.set_defaults(func=_cmd_run)

    latency = sub.add_parser("latency", help="Figure 6 latency sweep")
    latency.add_argument("--max-n", type=int, default=10)
    latency.add_argument("--t", type=int, default=1)
    latency.add_argument("--position", type=int, default=1)
    latency.add_argument("--size", type=int, default=100_000)
    latency.set_defaults(func=_cmd_latency)

    compare = sub.add_parser("compare", help="all protocols, one table")
    compare.add_argument("--n", type=int, default=5)
    compare.add_argument("--messages", type=int, default=10)
    compare.add_argument("--size", type=int, default=100_000)
    compare.add_argument("--max-time", type=float, default=600.0)
    compare.set_defaults(func=_cmd_compare)

    rounds = sub.add_parser("rounds", help="round-model comparison (§2/§4.3)")
    rounds.add_argument("--n", type=int, default=5)
    rounds.add_argument("--k", type=int, default=2)
    rounds.add_argument("--t", type=int, default=1)
    rounds.set_defaults(func=_cmd_rounds)

    predict = sub.add_parser("predict", help="closed-form model predictions")
    predict.add_argument("--n", type=int, default=5)
    predict.add_argument("--size", type=int, default=100_000)
    predict.set_defaults(func=_cmd_predict)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection campaign with invariant gating"
    )
    chaos.add_argument("--live", action="store_true",
                       help="run against a real localhost cluster: one OS "
                            "process per node, SIGKILL at fault times, "
                            "recovery verified on merged journals")
    chaos.add_argument("--seeds", type=int, default=None,
                       help="number of seeded runs (default 50; 25 with --live)")
    chaos.add_argument("--base-seed", type=int, default=0,
                       help="first seed; campaign is deterministic per base seed")
    chaos.add_argument("--scenario", action="append", default=None,
                       help="restrict to a scenario (repeatable); default: all "
                            "sound scenarios round-robin (crash_storm + "
                            "repeated_leader_crash with --live)")
    chaos.add_argument("--n", type=int, default=None,
                       help="cluster size (default 6; 5 with --live)")
    chaos.add_argument("--t", type=int, default=None,
                       help="FSR backup count (default 2)")
    chaos.add_argument("--shards", type=int, default=1,
                       help="concurrent FSR rings; >1 campaigns the "
                            "multiring protocol and adds the ring_crash "
                            "scenario (simulator only)")
    chaos.add_argument("--fd-violation", action="store_true",
                       help="also run the unsound failure-detector scenario "
                            "(its violations are documented, not failures; "
                            "simulator only)")
    chaos.add_argument("--report", default=None, metavar="PATH",
                       help="write the full JSON campaign report here")
    chaos.add_argument("--bench", default=None, metavar="PATH",
                       help="write the bench record here ('' to skip; default "
                            "BENCH_chaos.json, BENCH_chaos_live.json with "
                            "--live)")
    chaos.add_argument("--verbose", action="store_true",
                       help="print one line per seed as it finishes")
    chaos.set_defaults(func=_cmd_chaos)

    live = sub.add_parser(
        "live", help="real multi-process TCP loopback cluster benchmark"
    )
    live.add_argument("--processes", type=int, default=4,
                      help="cluster size (one OS process per FSR process)")
    live.add_argument("--senders", type=int, default=1,
                      help="how many ring positions drive traffic")
    live.add_argument("--t", type=int, default=1)
    live.add_argument("--shards", type=int, default=1,
                      help="concurrent FSR rings (multiring protocol); "
                           "each extra ring gets its own TCP port per node")
    live.add_argument("--size", type=int, default=100_000,
                      help="message payload bytes (paper default 100 kB)")
    live.add_argument("--duration", type=float, default=5.0,
                      help="seconds of traffic per sender")
    live.add_argument("--window", type=int, default=4,
                      help="closed-loop in-flight messages per sender")
    live.add_argument("--no-sim", action="store_true",
                      help="skip the simulator comparison run")
    live.add_argument("--out", default="BENCH_live.json", metavar="PATH",
                      help="bench record path (default BENCH_live.json)")
    live.add_argument("--spans", action="store_true",
                      help="trace per-message lifecycle spans + telemetry "
                           "on every node (JSONL journals, merged and "
                           "analyzed into a latency stage breakdown)")
    live.add_argument("--timeline", default=None, metavar="PATH",
                      help="write the merged cross-node span timeline here "
                           "(implies --spans); feed it to 'repro obs'")
    live.add_argument("--log-level", default=None, metavar="LEVEL",
                      help="per-node structured logging level "
                           "(DEBUG/INFO/WARNING; default off)")
    _add_batch_flags(live)
    live.set_defaults(func=_cmd_live)

    serve = sub.add_parser(
        "serve",
        help="client-serving KV service benchmark: latency-vs-load curve "
             "with exactly-once sessions and a leader-kill point",
    )
    serve.add_argument("--processes", type=int, default=3,
                       help="cluster size (one serve port per node)")
    serve.add_argument("--t", type=int, default=1)
    serve.add_argument("--lease", type=float, default=0.8, metavar="S",
                       help="leader lease for local reads, seconds")
    serve.add_argument("--heartbeat-timeout", type=float, default=1.0,
                       metavar="S",
                       help="failure-detector timeout: the ceiling for a "
                            "silent failure (hung process, dead host, "
                            "partition); a SIGKILL is found in ms from "
                            "the refused port, whatever this is")
    serve.add_argument("--rate", action="append", type=float, default=None,
                       metavar="RPS",
                       help="offered-load point (repeatable; default "
                            "100 300 600)")
    serve.add_argument("--duration", type=float, default=4.0,
                       help="load window per point, seconds")
    serve.add_argument("--sessions", type=int, default=20,
                       help="concurrent light client sessions")
    serve.add_argument("--read-fraction", type=float, default=0.5)
    serve.add_argument("--keys", type=int, default=100,
                       help="key space size (Zipf-distributed access)")
    serve.add_argument("--zipf", type=float, default=1.1,
                       help="Zipf skew parameter")
    serve.add_argument("--value-bytes", type=int, default=64)
    serve.add_argument("--retry-timeout", type=float, default=1.0,
                       metavar="S",
                       help="client retry/failover timeout per request")
    serve.add_argument("--no-kill", action="store_true",
                       help="skip the kill-the-leader-mid-load point")
    serve.add_argument("--kill-rate", type=float, default=None, metavar="RPS",
                       help="offered rate for the kill point (default: "
                            "middle of the sweep)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--out", default="BENCH_serve.json", metavar="PATH",
                       help="bench record path (default BENCH_serve.json)")
    serve.add_argument("--trace-requests", action="store_true",
                       help="end-to-end request tracing: per-request "
                            "queue/replication/apply/respond breakdown, "
                            "cross-checked against measured latency")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live /metrics + /healthz per node; 0 "
                            "picks ephemeral ports, otherwise node i "
                            "listens on PORT+i")
    serve.add_argument("--profile", default=None, metavar="DIR",
                       help="CPU-profile every node; flamegraph-collapsed "
                            "stacks land in DIR/node<i>.collapsed.txt")
    serve.add_argument("--log-level", default=None, metavar="LEVEL",
                       help="node process logging level (INFO, DEBUG, ...)")
    serve.add_argument("--timeline", default=None, metavar="PATH",
                       help="write the merged request/span timeline here "
                            "(needs --trace-requests); feed it to "
                            "'repro obs'")
    serve.add_argument("--prom", default=None, metavar="PATH",
                       help="save the mid-load Prometheus scrape here "
                            "(needs --metrics-port)")
    serve.set_defaults(func=_cmd_serve)

    obs = sub.add_parser(
        "obs", help="analyze a merged span timeline (latency stages, links)"
    )
    obs.add_argument("timeline", metavar="TIMELINE",
                     help="timeline JSONL from 'repro live --timeline PATH'")
    obs.add_argument("--prom", default=None, metavar="PATH",
                     help="write a Prometheus text snapshot here")
    obs.add_argument("--json", default=None, metavar="PATH",
                     help="write the stage/link report as JSON here")
    obs.set_defaults(func=_cmd_obs)

    live_node = sub.add_parser(
        "live-node", help=argparse.SUPPRESS
    )
    live_node.add_argument("--config", required=True)
    live_node.add_argument("--out", required=True)
    live_node.set_defaults(func=_cmd_live_node)

    figures = sub.add_parser("figures", help="regenerate Table 1 + Figures 6-9")
    figures.set_defaults(func=_cmd_figures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
