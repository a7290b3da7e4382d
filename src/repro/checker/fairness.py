"""Fairness measurement (paper §4.2.3).

The paper's fairness notion: when several processes TO-broadcast
continuously, each should get the same number of messages delivered per
unit time.  :func:`sender_fairness` quantifies this over a time window
with Jain's index on per-sender delivered counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.cluster.results import ExperimentResult
from repro.errors import CheckFailure
from repro.stats import jain_index
from repro.types import ProcessId, SimTime


def sender_fairness(
    result: ExperimentResult,
    senders: Sequence[ProcessId],
    until: Optional[SimTime] = None,
) -> float:
    """Jain index of per-sender completed deliveries up to ``until``.

    Counting *completed* broadcasts before a cutoff (rather than at run
    end, where every backlog has drained) is what exposes unfair
    protocols: a starved sender's messages complete late.
    """
    if not senders:
        raise CheckFailure("fairness needs at least one sender")
    counts: Dict[ProcessId, int] = {pid: 0 for pid in senders}
    for record in result.broadcasts:
        origin = result.broadcast_origin[record.message_id]
        if origin not in counts:
            continue
        completion = result.completion_time(record.message_id)
        if completion is None:
            continue
        if until is not None and completion > until:
            continue
        counts[origin] += 1
    return jain_index([float(c) for c in counts.values()])
