"""Turns raw experiment results into the paper's headline numbers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.results import ExperimentResult
from repro.errors import ConfigurationError
from repro.stats import jain_index, mean, percentile
from repro.types import MessageId, ProcessId, SimTime
from repro.workloads.driver import WorkloadOutcome


def latency_of_message(
    outcome: WorkloadOutcome, message_id: MessageId
) -> Optional[SimTime]:
    """Submission-to-last-delivery latency of one application message.

    This is the paper's latency definition (§4.3.1): from TO-broadcast
    until the *last* process TO-delivers.
    """
    submit = None
    for record in outcome.result.broadcasts:
        if record.message_id == message_id:
            submit = record.submit_time
            break
    if submit is None:
        raise ConfigurationError(f"{message_id} was never broadcast")
    completion = outcome.result.completion_time(message_id)
    if completion is None:
        return None
    return completion - submit


@dataclass
class ExperimentMetrics:
    """Summary numbers for one workload run.

    ``aggregate_throughput_mbps`` sums per-sender rates, each measured
    over that sender's own completion window — the paper's §5.1 method.
    ``completion_throughput_mbps`` divides the total payload by the
    single window from start to the last completion; the two coincide
    on long balanced runs, and the latter is robust to ramp-up effects
    on short ones (benchmarks report it).
    """

    aggregate_throughput_mbps: float
    completion_throughput_mbps: float
    per_sender_throughput_mbps: Dict[ProcessId, float]
    mean_latency_s: float
    p50_latency_s: float
    p99_latency_s: float
    #: Jain fairness index over per-sender delivered counts.
    fairness: float
    duration_s: SimTime
    messages_completed: int

    def as_row(self) -> List[str]:
        return [
            f"{self.aggregate_throughput_mbps:.1f}",
            f"{self.mean_latency_s * 1e3:.1f}",
            f"{self.p99_latency_s * 1e3:.1f}",
            f"{self.fairness:.3f}",
        ]


def collect_metrics(outcome: WorkloadOutcome) -> ExperimentMetrics:
    """Compute :class:`ExperimentMetrics` from a workload outcome.

    Runs in linear time: submission times and completion times are
    looked up through one-pass indexes, never per-message scans — live
    benchmark runs complete thousands of messages.
    """
    per_sender: Dict[ProcessId, float] = {}
    for sender in outcome.sent:
        value = outcome.sender_throughput_bps(sender)
        if value is not None:
            per_sender[sender] = value / 1e6

    completions = outcome.result.completion_times()
    submit_times = {
        record.message_id: record.submit_time
        for record in outcome.result.broadcasts
    }

    latencies: List[float] = []
    completed = 0
    # Fairness: how evenly the completed messages divide across senders.
    counts: List[float] = []
    for sender, message_ids in outcome.sent.items():
        delivered = 0
        for message_id in message_ids:
            completion = completions.get(message_id)
            if completion is None:
                continue
            delivered += 1
            submit = submit_times.get(message_id)
            if submit is None:
                raise ConfigurationError(f"{message_id} was never broadcast")
            latencies.append(completion - submit)
            completed += 1
        counts.append(float(delivered))

    if not latencies:
        raise ConfigurationError("no message completed; nothing to report")
    last_completion = max(
        completions[mid]
        for ids in outcome.sent.values()
        for mid in ids
        if mid in completions
    )
    total_bytes = completed * outcome.pattern.message_bytes
    completion_mbps = (
        total_bytes * 8.0 / (last_completion - outcome.start_time) / 1e6
    )
    return ExperimentMetrics(
        aggregate_throughput_mbps=sum(per_sender.values()),
        completion_throughput_mbps=completion_mbps,
        per_sender_throughput_mbps=per_sender,
        mean_latency_s=mean(latencies),
        p50_latency_s=percentile(latencies, 50),
        p99_latency_s=percentile(latencies, 99),
        fairness=jain_index(counts),
        duration_s=outcome.result.duration_s,
        messages_completed=completed,
    )
