"""Request-scoped tracing for the serve stack.

Message-lifecycle spans (:mod:`repro.obs.span`) stop at the replication
layer: they trace a ring message from ``broadcast`` to ``delivered``
but say nothing about the client request that caused it.  A
*request event* marks one stage of a client request's life::

    send -> recv -> enqueued -> proposed -> ordered -> applied
         -> responded -> acked

``send``/``acked`` are stamped client-side (node ``-1``); the rest are
stamped by the serving replica.  ``proposed`` carries the
``MessageId`` the session envelope was broadcast under, which joins a
request onto the message-lifecycle spans for the same payload — one
``repro obs`` timeline covers both layers.

Point markers record *how* a request was served rather than a stage
boundary: ``local_read`` / ``cached`` (the non-ordered serve paths),
``ordered_fallback`` (a read-only op pushed through the total order by
a lease or barrier rejection), and ``failover_resend`` (the client
re-sent pending requests after rotating servers).

:func:`request_breakdown` decomposes client-observed latency into
queue/replication/apply/respond stages — the serve-layer analogue of
the paper's §4.3.1 hop/sequencing/stability breakdown, driven by the
same stage-table machinery (:mod:`repro.obs.stages`) — and
:func:`crosscheck_request_latency` hard-gates the traced end-to-end
mean against the load generator's independently measured latencies,
the same 5% bar as :func:`repro.obs.analyze.crosscheck_latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import CheckFailure
from repro.obs.event import Event, EventLog
from repro.obs.stages import (
    Breakdown,
    StageStats,
    StageTable,
    crosscheck,
    first_stamps,
    is_complete,
    summarize,
    telescope,
)
from repro.stats import mean
from repro.types import MessageId

#: Stage events in causal order.  ``send``/``acked`` are client-side;
#: the rest are server-side.  Cached/local requests skip the ordered
#: stages (``enqueued`` .. ``applied``).
REQUEST_KINDS = (
    "send", "recv", "enqueued", "proposed", "ordered",
    "applied", "responded", "acked",
)

#: Point markers: serve-path taken / client failover activity.  They
#: never bound a stage; the breakdown only counts them.
REQUEST_MARKERS = ("local_read", "cached", "ordered_fallback", "failover_resend")

#: Causal rank for sorting a request's events when timestamps tie.
REQUEST_KIND_RANK: Dict[str, int] = {
    kind: rank for rank, kind in enumerate(REQUEST_KINDS)
}

#: The request stage table, ordered-path requests only:
#:
#: * **queue** — client ``send`` until the envelope is ``proposed``
#:   (wire transit plus the server's dispatch/enqueue work);
#: * **replication** — ``proposed`` until the total order delivers it
#:   back (``ordered``): the full broadcast lifecycle;
#: * **apply** — ``ordered`` until the session machine ``applied`` it
#:   (decode + dedup + inner-machine CPU);
#: * **respond** — ``applied`` until the client saw the ack.
REQUEST_STAGE_TABLE: StageTable = (
    ("queue", "send", "proposed"),
    ("replication", "proposed", "ordered"),
    ("apply", "ordered", "applied"),
    ("respond", "applied", "acked"),
)

#: Stage names of the request breakdown, in lifecycle order.
REQUEST_STAGES = tuple(stage for stage, _, _ in REQUEST_STAGE_TABLE)

#: Node id stamped on client-side events (clients are not ring nodes).
CLIENT_NODE = -1


@dataclass(frozen=True)
class RequestEvent(Event):
    """One lifecycle event (or marker) for one client request.

    Keyed by ``(client, seq)`` — the same identity the exactly-once
    session layer dedups on — so retries and failover resends fold
    onto one request.  ``origin``/``local_seq`` are set on ``proposed``
    events only: the join key onto message-lifecycle spans.
    """

    TYPE = "req"

    time: float
    node: int
    kind: str
    client: str
    seq: int
    origin: Optional[int] = None
    local_seq: Optional[int] = None

    @property
    def message_id(self) -> Optional[MessageId]:
        if self.origin is None or self.local_seq is None:
            return None
        return MessageId(origin=self.origin, local_seq=self.local_seq)

    def __str__(self) -> str:
        join = ""
        if self.origin is not None:
            join = f" msg=({self.origin},{self.local_seq})"
        return (
            f"[{self.time:.6f}] n{self.node} {self.kind} "
            f"{self.client}#{self.seq}{join}"
        )


def request_sort_key(event: RequestEvent) -> tuple:
    """Sort key placing a request's events in causal lifecycle order."""
    return (
        event.time,
        REQUEST_KIND_RANK.get(event.kind, len(REQUEST_KINDS)),
        event.node,
    )


class RequestLog(EventLog[RequestEvent]):
    """Request-event log; ``emit(time, node, kind, client, seq,
    origin=, local_seq=)``."""

    record_type = RequestEvent


def requests_by_key(
    events: Iterable[RequestEvent],
) -> Dict[Tuple[str, int], List[RequestEvent]]:
    """Group request events by ``(client, seq)``, in lifecycle order."""
    grouped: Dict[Tuple[str, int], List[RequestEvent]] = {}
    for event in events:
        grouped.setdefault((event.client, event.seq), []).append(event)
    for group in grouped.values():
        group.sort(key=request_sort_key)
    return grouped


@dataclass
class RequestBreakdown(Breakdown):
    """Client-observed latency decomposed into serve-layer stages.

    The stages (:data:`REQUEST_STAGE_TABLE`) cover *ordered-path*
    requests — the ones that rode the total order — and sum to their
    end-to-end latency exactly.  ``overall`` summarises end-to-end
    latency over *all* traced requests (local reads and cached answers
    included), which is the population the load generator measures —
    the cross-check target.
    """

    _STATS_FIELDS = ("end_to_end", "overall")

    #: Ordered-path requests with a complete stage lifecycle.
    requests: int
    #: Traced requests skipped for an incomplete lifecycle.
    skipped: int
    #: All requests with both ``send`` and ``acked`` stamps.
    total: int
    stages: Dict[str, StageStats]
    #: End-to-end stats over the ordered-path requests above.
    end_to_end: StageStats
    #: End-to-end stats over all traced requests (every serve path).
    overall: StageStats
    #: Serve-path / failover marker counts.
    markers: Dict[str, int]

    def _totals(self) -> List[Tuple[str, StageStats, str]]:
        return [
            ("ordered e2e", self.end_to_end, "100.0%"),
            ("all paths", self.overall, ""),
        ]

    def _footer(self) -> str:
        marks = ", ".join(
            f"{name}={self.markers.get(name, 0)}" for name in REQUEST_MARKERS
        )
        return (
            f"({self.requests} ordered of {self.total} traced requests, "
            f"{self.skipped} incomplete; {marks})"
        )


def request_breakdown(events: Iterable[RequestEvent]) -> RequestBreakdown:
    """Decompose traced requests into queue/replication/apply/respond.

    Retries fold by ``(client, seq)``: the *first* event of each kind
    wins, so a request resent after failover is measured from its
    original submission — exactly what the client observed.  Requests
    missing ``send`` or ``acked`` (in flight at shutdown) are skipped;
    ordered-path requests additionally need ``proposed``/``ordered``/
    ``applied`` to contribute stage samples.
    """
    ordered: List[Dict[str, float]] = []
    all_e2e: List[float] = []
    skipped = 0
    markers: Dict[str, int] = {name: 0 for name in REQUEST_MARKERS}

    for group in requests_by_key(events).values():
        for event in group:
            if event.kind in markers:
                markers[event.kind] += 1
        stamps = first_stamps(group)
        if "send" not in stamps or "acked" not in stamps:
            skipped += 1
            continue
        all_e2e.append(stamps["acked"] - stamps["send"])
        if not is_complete(REQUEST_STAGE_TABLE, stamps):
            continue  # local/cached path: no ordered stages to decompose
        if stamps["acked"] < stamps["applied"]:
            # The ack raced ahead of the ordered application: a failover
            # duplicate rode the total order after a cached/local answer
            # had already satisfied the client.  The client-observed
            # latency (counted above) was not produced by these stages,
            # so crediting them would yield negative respond times.
            continue
        ordered.append(stamps)

    if not all_e2e:
        raise CheckFailure(
            "no traced request completed a send/acked round trip; was the "
            "run traced with --trace-requests?"
        )
    if not ordered:
        raise CheckFailure(
            "no traced request took the ordered path (proposed/ordered/"
            "applied); nothing to decompose into stages"
        )

    stages, end_to_end = telescope(REQUEST_STAGE_TABLE, ordered)
    return RequestBreakdown(
        requests=len(ordered),
        skipped=skipped,
        total=len(all_e2e),
        stages=stages,
        end_to_end=end_to_end,
        overall=summarize(all_e2e, mean(all_e2e)),
        markers=markers,
    )


def crosscheck_request_latency(
    breakdown: RequestBreakdown, mean_latency_s: float
) -> None:
    """Assert traced latency matches the load generator's measurement.

    Both populations are "every completed request" — the traced
    ``overall`` mean and the generator's own timestamps — so their
    means must agree (:func:`repro.obs.stages.crosscheck`).
    """
    crosscheck(
        breakdown.overall.mean_s, mean_latency_s,
        "request traces give a mean end-to-end of",
        "the load generator measured",
    )
