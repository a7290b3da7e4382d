"""Measurement drivers for the round model.

Two measurements match the paper's analytical section:

* :func:`measure_latency` — single contention-free broadcast, exact
  round count until the last process delivers (paper §4.3.1).
* :func:`measure_throughput` — ``k`` saturating senders, completed
  TO-broadcasts per round over a steady-state window (paper §4.3.2).

:func:`round_factory` hosts any registered protocol under the model,
so a sweep reaches every class of Section 2 by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.fsr.config import FSRConfig
from repro.errors import ConfigurationError, SimulationError
from repro.protocols.destination_agreement import DestinationAgreementConfig
from repro.protocols.moving_sequencer import MovingSequencerConfig
from repro.protocols.registry import PROTOCOLS
from repro.rounds.engine import RoundEngine, RoundMsgId, RoundProcess
from repro.rounds.history_round import CommunicationHistoryRoundProcess
from repro.rounds.host import RoundHost
from repro.types import ProcessId

#: Factory signature: (pid, members, supply, deliver_cb, window) -> RoundProcess.
RoundFactory = Callable[..., RoundProcess]

#: Round-model settings of the baselines whose defaults are tuned for
#: the cluster: one sequencing decision per token visit, and consensus
#: batches of eight.
_ROUND_CONFIGS = {
    "moving_sequencer": MovingSequencerConfig(max_per_token=1),
    "destination_agreement": DestinationAgreementConfig(max_batch=8),
}


def round_factory(name: str, **options) -> RoundFactory:
    """A factory of :class:`RoundHost` endpoints of protocol ``name``.

    ``fsr`` accepts ``t``/``fairness``/``piggyback``.
    ``communication_history`` runs its own automaton
    (:mod:`repro.rounds.history_round` says why).
    """
    if name not in PROTOCOLS:
        known = ", ".join(sorted(PROTOCOLS))
        raise ConfigurationError(f"unknown protocol {name!r}; registered: {known}")
    config = _ROUND_CONFIGS.get(name)
    if name == "fsr":
        config = FSRConfig(
            t=options.pop("t", 1),
            fairness=options.pop("fairness", True),
            piggyback_acks=options.pop("piggyback", True),
        )
    if options:
        raise ConfigurationError(f"{name!r} accepts no factory options {sorted(options)}")
    if name == "communication_history":
        return CommunicationHistoryRoundProcess

    def make(pid, members, supply, deliver_cb, window=None):
        return RoundHost(pid, members, name, config, supply, deliver_cb, window)

    return make


@dataclass
class RoundRunResult:
    """Outcome of one round-model run."""

    rounds: int
    #: message id -> round at which the *last* process delivered it.
    completion_round: Dict[RoundMsgId, int]
    #: per-process delivered message lists (total order check material).
    delivered: Dict[ProcessId, List[RoundMsgId]]
    #: completed broadcasts per round over the measured window.
    throughput: float


class _Observer:
    """A broadcast completes in the round its ``n``-th *distinct* process
    delivers it; a repeat would complete it a process early, so it is an
    error, not a count."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.deliverers: Dict[RoundMsgId, Set[ProcessId]] = {}
        self.completion: Dict[RoundMsgId, int] = {}

    def __call__(self, pid: ProcessId, mid: RoundMsgId, seq: int, rnd: int) -> None:
        deliverers = self.deliverers.setdefault(mid, set())
        if pid in deliverers:
            raise SimulationError(
                f"process {pid} delivered {mid} twice (round {rnd})"
            )
        deliverers.add(pid)
        if len(deliverers) == self.n:
            self.completion[mid] = rnd


def _build(
    factory: RoundFactory,
    n: int,
    supplies: Dict[ProcessId, Optional[int]],
    window: Optional[int] = None,
) -> Tuple[RoundEngine, List[RoundProcess], _Observer]:
    members = tuple(range(n))
    observer = _Observer(n)
    engine = RoundEngine()
    processes: List[RoundProcess] = []
    for pid in members:
        process = factory(pid, members, supplies.get(pid, 0), observer, window)
        engine.attach(process)
        processes.append(process)
    return engine, processes, observer


def measure_latency(
    factory: RoundFactory,
    n: int,
    sender_position: int,
    max_rounds: int = 10_000,
) -> int:
    """Rounds from a single broadcast until the last process delivers.

    The count includes the sending round itself, matching the paper's
    convention where each hop costs one round.
    """
    supplies: Dict[ProcessId, Optional[int]] = {pid: 0 for pid in range(n)}
    supplies[sender_position] = 1
    engine, _processes, observer = _build(factory, n, supplies)
    engine.run_until(lambda: len(observer.completion) == 1, max_rounds=max_rounds)
    (completion_round,) = observer.completion.values()
    return completion_round + 1  # rounds are 0-indexed


def measure_throughput(
    factory: RoundFactory,
    n: int,
    k: int,
    warmup_rounds: int = 200,
    window_rounds: int = 1000,
) -> RoundRunResult:
    """Completed TO-broadcasts per round with ``k`` saturating senders."""
    if not 1 <= k <= n:
        raise ConfigurationError(f"k={k} out of range for n={n}")
    supplies: Dict[ProcessId, Optional[int]] = {pid: 0 for pid in range(n)}
    step = max(1, n // k)
    senders = [(i * step) % n for i in range(k)]
    if len(set(senders)) != k:  # fall back to the first k positions
        senders = list(range(k))
    for pid in senders:
        supplies[pid] = None
    # Closed-loop flow control: each sender keeps a bounded number of
    # its messages in flight (as real transports do via backpressure);
    # an open loop would grow queues without bound for the slower
    # protocol classes and make "throughput" meaningless.
    engine, processes, observer = _build(factory, n, supplies, window=4 * n)
    engine.run_rounds(warmup_rounds)
    completed_before = len(observer.completion)
    engine.run_rounds(window_rounds)
    completed_after = len(observer.completion)
    throughput = (completed_after - completed_before) / window_rounds
    delivered = {
        process.pid: list(getattr(process, "delivered"))
        for process in processes
    }
    return RoundRunResult(
        rounds=engine.round_index,
        completion_round=dict(observer.completion),
        delivered=delivered,
        throughput=throughput,
    )
