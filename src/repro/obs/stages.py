"""Stage tables: one telescoping latency decomposition for every lifecycle.

The paper's latency argument (§4.3.1) is a telescoping sum: end-to-end
latency splits at shared event boundaries, so the parts add up to the
whole *by construction*.  A **stage table** names the boundaries::

    (("hop", "broadcast", "sequenced"),
     ("sequencing", "sequenced", "stable"),
     ("stability", "stable", "delivered"))

Each row is ``(stage, from_kind, to_kind)`` and starts where the
previous one ended.  :func:`telescope` turns a table plus per-lifecycle
boundary stamps into per-stage statistics; :class:`Breakdown` is the
record both decompositions (message spans in
:mod:`repro.obs.analyze`, client requests in
:mod:`repro.obs.reqtrace`) report, serialise and render through.  A new
lifecycle — the view change, say — is a new table, not a new module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import CheckFailure
from repro.stats import mean, percentile

#: ``(stage, from_kind, to_kind)`` rows in lifecycle order.
StageTable = Tuple[Tuple[str, str, str], ...]

#: Allowed relative drift between a traced mean and the independently
#: measured one it must explain (:func:`crosscheck`).
CROSSCHECK_REL_TOLERANCE = 0.05


@dataclass(frozen=True)
class StageStats:
    """Distribution summary of one latency stage across lifecycles."""

    mean_s: float
    p50_s: float
    p99_s: float
    #: This stage's share of mean end-to-end latency (0..1).
    share: float


def summarize(samples: Sequence[float], mean_e2e: float) -> StageStats:
    return StageStats(
        mean_s=mean(samples),
        p50_s=percentile(samples, 50.0),
        p99_s=percentile(samples, 99.0),
        share=(mean(samples) / mean_e2e) if mean_e2e > 0 else 0.0,
    )


def first_stamps(events: Iterable[Any]) -> Dict[str, float]:
    """``kind -> time`` of a lifecycle; the *first* event of a kind wins.

    Retries and per-node repeats fold onto the earliest stamp — a
    request resent after failover is measured from its original send.
    """
    stamps: Dict[str, float] = {}
    for event in events:
        if event.kind not in stamps:
            stamps[event.kind] = event.time
    return stamps


def is_complete(table: StageTable, stamps: Mapping[str, float]) -> bool:
    """Whether ``stamps`` holds every boundary the table telescopes over."""
    return table[-1][2] in stamps and all(row[1] in stamps for row in table)


def telescope(
    table: StageTable, lifecycles: Sequence[Mapping[str, float]]
) -> Tuple[Dict[str, StageStats], StageStats]:
    """Per-stage and end-to-end stats over complete lifecycles.

    Boundaries are shared stamps, so each lifecycle's stages sum to its
    end-to-end value exactly; shares are of the mean end-to-end.
    """
    samples: Dict[str, List[float]] = {stage: [] for stage, _, _ in table}
    end_to_end: List[float] = []
    first, last = table[0][1], table[-1][2]
    for stamps in lifecycles:
        for stage, start, end in table:
            samples[stage].append(stamps[end] - stamps[start])
        end_to_end.append(stamps[last] - stamps[first])
    mean_e2e = mean(end_to_end)
    return (
        {stage: summarize(values, mean_e2e) for stage, values in samples.items()},
        summarize(end_to_end, mean_e2e),
    )


def crosscheck(
    traced_s: float, measured_s: float, traced: str, measured: str
) -> None:
    """Raise unless a traced mean explains the measured one within
    :data:`CROSSCHECK_REL_TOLERANCE`.

    The acceptance bar of the observation layer: a decomposition must
    account for the latency someone else measured through their own
    timestamps, not merely co-exist with it.  ``traced``/``measured``
    word the two sides of the failure message.
    """
    drift = abs(traced_s - measured_s) / max(measured_s, 1e-9)
    if drift > CROSSCHECK_REL_TOLERANCE:
        raise CheckFailure(
            f"{traced} {traced_s * 1e3:.2f} ms but {measured} "
            f"{measured_s * 1e3:.2f} ms ({drift * 100:.1f}% apart > "
            f"{CROSSCHECK_REL_TOLERANCE * 100:.0f}%)"
        )


class Breakdown:
    """Base of the breakdown dataclasses: derived serde and the table.

    Subclasses are dataclasses with a ``stages`` dict (in stage-table
    order) and an ``end_to_end`` :class:`StageStats`; any other
    :class:`StageStats` field is named in :attr:`_STATS_FIELDS`.  Field
    order is the JSON key order (``BENCH_*.json``, ``repro obs --json``).
    """

    _STATS_FIELDS: Tuple[str, ...] = ("end_to_end",)
    stages: Dict[str, StageStats]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)  # type: ignore[call-overload]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        kwargs = {spec.name: data[spec.name] for spec in fields(cls)}  # type: ignore[arg-type]
        kwargs["stages"] = {
            name: StageStats(**stats) for name, stats in kwargs["stages"].items()
        }
        for name in cls._STATS_FIELDS:
            kwargs[name] = StageStats(**kwargs[name])
        return cls(**kwargs)

    def _totals(self) -> List[Tuple[str, StageStats, str]]:
        """``(label, stats, share text)`` rows under the stage rows."""
        raise NotImplementedError

    def _footer(self) -> str:
        raise NotImplementedError

    def render_table(self) -> str:
        header = f"{'stage':<12} {'mean ms':>9} {'p50 ms':>9} {'p99 ms':>9} {'share':>7}"
        rule = "-" * len(header)

        def row(label: str, s: StageStats, share: str) -> str:
            return (
                f"{label:<12} {s.mean_s * 1e3:>9.2f} {s.p50_s * 1e3:>9.2f} "
                f"{s.p99_s * 1e3:>9.2f} {share:>7}"
            )

        return "\n".join([
            header,
            rule,
            *(row(name, s, f"{s.share * 100:.1f}%") for name, s in self.stages.items()),
            rule,
            *(row(*total) for total in self._totals()),
            self._footer(),
        ])
