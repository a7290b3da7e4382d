"""The session layer on the discrete-event engine.

The exactly-once machinery (:class:`~repro.serve.session.SessionMachine`)
is pure protocol state riding ordinary commands, so it runs unchanged
on the simulator: wrap every sim node's protocol endpoint in a
:class:`~repro.smr.machine.ReplicatedStateMachine` over a
``SessionMachine`` and submit scripted session envelopes.  The sim/live
conformance test drives the *same* scripted client session through both
runtimes and asserts the applied-command sequences are identical —
duplicates deduplicated at the same points, errors cached the same way,
states bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.harness import Cluster, build_cluster
from repro.core.fsr.config import FSRConfig
from repro.serve.session import SessionMachine, session_command
from repro.smr.kvstore import KVStore
from repro.smr.machine import ReplicatedStateMachine, batch_command
from repro.types import ProcessId

#: One scripted step: (client_id, seq, first_unacked, op, args).
ScriptStep = Tuple[str, int, int, str, Tuple[Any, ...]]

#: The canonical conformance script: two interleaved sessions with
#: literal duplicates (a retried write and a retried *failing* write)
#: and a deterministic error.  Shared by the sim and live sides of the
#: conformance test so both runtimes replay the identical session.
CONFORMANCE_SCRIPT: List[ScriptStep] = [
    ("alice", 1, 1, "put", ("x", "1")),
    ("bob", 1, 1, "put", ("y", "9")),
    ("alice", 2, 2, "incr", ("ctr", 5)),
    ("alice", 2, 2, "incr", ("ctr", 5)),  # duplicate: applies once
    ("bob", 2, 2, "get", ("x",)),
    ("alice", 3, 3, "bogus", ("z",)),  # deterministic error, cached
    ("alice", 3, 3, "bogus", ("z",)),  # duplicate of the error: cached
    ("bob", 3, 3, "cas", ("y", "9", "10")),
    ("alice", 4, 4, "delete", ("x",)),
]


def expected_applied(script: List[ScriptStep]) -> List[Tuple[str, int, str]]:
    """The first-application sequence a correct run of ``script`` yields:
    the script order with duplicate ``(client, seq)`` entries collapsed."""
    seen = set()
    applied: List[Tuple[str, int, str]] = []
    for client, seq, _first_unacked, op, _args in script:
        if (client, seq) not in seen:
            seen.add((client, seq))
            applied.append((client, seq, op))
    return applied


@dataclass
class ScriptedRun:
    """What one scripted sim session produced."""

    #: First-application sequence per node: (client, seq, op).
    applied: Dict[ProcessId, List[Tuple[str, int, str]]]
    #: Final machine snapshot per node.
    snapshots: Dict[ProcessId, Any]
    #: Dedup hits per node (duplicates answered from the table).
    dedup_hits: Dict[ProcessId, int] = field(default_factory=dict)


def run_scripted_session(
    script: Optional[List[ScriptStep]] = None,
    n: int = 3,
    t: int = 1,
    origin: ProcessId = 0,
    batch_sizes: Optional[Sequence[int]] = None,
) -> ScriptedRun:
    """Drive a scripted client session through a simulated cluster.

    Every step is submitted at ``origin`` — FIFO per origin plus the
    total order make the applied sequence exactly the script order with
    duplicates collapsing into dedup hits, which is what the live side
    reproduces by awaiting each ack before the next request.

    ``batch_sizes`` cuts the script into consecutive ``@batch``
    broadcasts of those sizes (the serve tier's group commit; a
    remainder rides one last batch) — the applied sequence must not
    depend on the cut.
    """
    steps = CONFORMANCE_SCRIPT if script is None else script
    config = ClusterConfig(n=n, protocol="fsr", protocol_config=FSRConfig(t=t))
    cluster: Cluster = build_cluster(config)
    machines: Dict[ProcessId, SessionMachine] = {}
    rsms: Dict[ProcessId, ReplicatedStateMachine] = {}
    applied: Dict[ProcessId, List[Tuple[str, int, str]]] = {}
    for node_id, node in cluster.nodes.items():
        machine = SessionMachine(KVStore())
        # Replaces the harness's app-delivery listener: the RSM is the
        # application here, and its applied_index is the progress gauge.
        rsms[node_id] = ReplicatedStateMachine(node.protocol, machine)
        machines[node_id] = machine
        log: List[Tuple[str, int, str]] = []
        applied[node_id] = log
        machine.on_session_apply(
            lambda client, seq, op, args, outcome, index, _log=log: _log.append(
                (client, seq, op)
            )
        )
    cluster.start()
    commands = [
        session_command(client, seq, first_unacked, op, args)
        for client, seq, first_unacked, op, args in steps
    ]
    # The trailing len(commands) sweeps up whatever the sizes left over.
    cuts = [1] * len(commands) if batch_sizes is None else [*batch_sizes, len(commands)]
    start = 0
    for size in cuts:
        chunk = commands[start:start + size]
        if chunk:
            rsms[origin].submit(batch_command(chunk))
        start += size
    cluster.run_until(
        lambda: all(
            machine.applied_index >= len(steps)
            for machine in machines.values()
        )
    )
    return ScriptedRun(
        applied=applied,
        snapshots={
            node_id: machine.snapshot()
            for node_id, machine in machines.items()
        },
        dedup_hits={
            node_id: machine.dedup_hits
            for node_id, machine in machines.items()
        },
    )
