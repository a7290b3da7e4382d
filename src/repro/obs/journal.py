"""JSONL journals and the cross-node timeline merger.

Live nodes append every broadcast/delivery (the node journal) and every
span, request event and periodic telemetry snapshot (the span journal)
to per-node JSONL files.  The node journal holds its hot lines for the
rest of the event-loop turn and writes them once, ahead of any socket
write of that turn; every other line is flushed as it is written.  So a
SIGKILLed node's log survives up to at worst one torn final line, and
loses only lines that no peer or client could have seen.  This module
holds the one writer (:class:`JsonlWriter`), the line templates its hot
lines are rendered from (:func:`line_template`), the one
torn-tail-tolerant, incremental reader (:class:`JsonlReader`) every
journal goes through, and the merger that joins per-node span journals
into one :class:`Timeline`: all events rebased to a common origin and
sorted, ready for ``python -m repro obs``.

The monotonic clock live nodes stamp spans with is system-wide on
Linux, so cross-process timestamps are directly comparable after a
single rebase.  Simulated runs skip the files entirely —
:func:`timeline_from_spanlog` wraps an in-memory ``SpanLog``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as json_string
from typing import Any, Dict, List, Optional, Sequence, TextIO, Type, TypeVar

from repro.obs.event import Event
from repro.obs.reqtrace import RequestEvent, request_sort_key
from repro.obs.span import SpanEvent, SpanLog, distinct_messages, lifecycle_sort_key
from repro.types import MessageId

SPAN_JOURNAL_SCHEMA = "repro.span_journal/1"
TIMELINE_SCHEMA = "repro.timeline/1"

E = TypeVar("E", bound=Event)


def line_template(kind: str, fields: Sequence[str]) -> str:
    """The %-template of one hot journal line type.

    ``line_template(kind, fields) % row`` is byte for byte
    ``json.dumps({"type": kind, **dict(zip(fields, row))}) + "\\n"`` for
    a row whose values are ints, finite floats (``str`` of either is its
    JSON) or strings already rendered by :func:`json_string` — what
    ``json.dumps`` writes for a string, quotes included.  No dict is
    built and no encoder runs per line.
    """
    names = [json.dumps(name).replace("%", "%%") for name in ("type", *fields)]
    values = [json.dumps(kind).replace("%", "%%")] + ["%s"] * len(fields)
    return "{" + ", ".join(
        f"{name}: {value}" for name, value in zip(names, values)
    ) + "}\n"


class JsonlWriter:
    """Append-only JSONL file that survives SIGKILL.

    :meth:`write` renders a dict and flushes it at once, behind any
    lines still held (lifecycle lines, span journals).  :meth:`append`
    takes a line already rendered (by a :func:`line_template`) and holds
    it for the rest of ``loop``'s turn: the turn's first line schedules
    :meth:`flush` for the turn's end, and a node calls :meth:`flush`
    ahead of any socket write of the turn, so everything journalled in a
    turn is in the file before any byte of that turn leaves the process.
    A flush is one ``write`` + ``flush``; page cache contents survive the
    process, so a killed writer's file is intact up to (at worst) one
    torn final line, which :class:`JsonlReader` tolerates.  ``path=None``
    writes nothing.
    """

    def __init__(
        self, path: Optional[str],
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self._fh: Optional[TextIO] = open(path, "w") if path else None
        #: The loop whose turns bound :meth:`append`'s lines.
        self._loop = loop
        self._held: List[str] = []
        #: File writes made (each one ``write`` + ``flush``).
        self.writes = 0

    @property
    def enabled(self) -> bool:
        """False when ``write`` discards: per-message callers test this
        before they build an entry."""
        return self._fh is not None

    def write(self, entry: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._held.append(json.dumps(entry) + "\n")
        self.flush()

    def append(self, line: str) -> None:
        """Hold one rendered line until the turn ends or a socket write."""
        held = self._held
        if not held:
            self._loop.call_soon(self.flush)
        held.append(line)

    def flush(self) -> None:
        """Write the held lines, if any, in one write."""
        held = self._held
        if held and self._fh is not None:
            self._held = []
            self._fh.write("".join(held))
            self._fh.flush()
            self.writes += 1

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None


class JsonlReader:
    """Incremental reader of a (possibly still growing) JSONL file.

    :meth:`poll` returns the complete lines appended since the last
    call, parsed; reading a whole file is one ``poll()``.  An
    unterminated final line — a write in progress, or torn by a SIGKILL
    — is left for a later poll, and a missing file reads as empty.  A
    *terminated* line that is not a JSON object ends the readable
    prefix for good: nothing after corruption is trusted.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0

    def poll(self) -> List[Dict[str, Any]]:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return []
        entries: List[Dict[str, Any]] = []
        end = chunk.rfind(b"\n")
        if end < 0:
            return entries
        for line in chunk[:end].split(b"\n"):
            try:
                entry = json.loads(line)
            except ValueError:
                break
            if not isinstance(entry, dict):
                break
            entries.append(entry)
            self._offset += len(line) + 1
        return entries


class SpanJournal(JsonlWriter):
    """One node's span / request-event / telemetry journal.

    The first line is a ``span_meta`` header naming the node; a journal
    without it never reached the point of emitting spans and loaders
    reject it (mirrors the node journal's start-barrier rule).
    """

    def __init__(self, path: Optional[str], node: int, start_time: float = 0.0) -> None:
        super().__init__(path)
        self.write({
            "type": "span_meta",
            "schema": SPAN_JOURNAL_SCHEMA,
            "node": node,
            "start_time": start_time,
        })

    def write_event(self, event: Event) -> None:
        """The sink for :meth:`SpanLog.add_sink` / :meth:`RequestLog.add_sink`."""
        self.write(event.to_dict())

    def write_telemetry(self, time: float, snapshot: Dict[str, Any]) -> None:
        self.write({"type": "telemetry", "time": time, "snapshot": snapshot})


def _events_of(entries: List[Dict[str, Any]], cls: Type[E]) -> List[E]:
    return [cls.from_dict(e) for e in entries if e.get("type") == cls.TYPE]


def load_span_journal(path: str) -> Optional[Dict[str, Any]]:
    """Load one per-node span journal; torn-tail tolerant.

    Returns ``None`` for a missing file or one with no ``span_meta``
    header (the node never started emitting).  Otherwise returns
    ``{"node", "start_time", "events", "requests", "telemetry"}`` where
    ``events``/``requests`` are :class:`SpanEvent`/:class:`RequestEvent`
    lists and ``telemetry`` the snapshot entries, all in write order.
    """
    entries = JsonlReader(path).poll()
    meta = next((e for e in entries if e.get("type") == "span_meta"), None)
    if meta is None:
        return None
    return {
        "node": meta["node"],
        "start_time": meta.get("start_time", 0.0),
        "events": _events_of(entries, SpanEvent),
        "requests": _events_of(entries, RequestEvent),
        "telemetry": [e for e in entries if e.get("type") == "telemetry"],
    }


@dataclass
class Timeline:
    """A merged, rebased, time-sorted cross-node span timeline.

    ``telemetry`` holds each node's *final* telemetry snapshot (the
    live counters at the end of the run); ``duration_s`` spans from the
    rebased origin to the last event, which is what the per-link
    utilization summary divides by.
    """

    events: List[SpanEvent] = field(default_factory=list)
    telemetry: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    duration_s: float = 0.0
    #: Request-scoped serve-layer events (``--trace-requests`` runs).
    requests: List[RequestEvent] = field(default_factory=list)
    #: Span events lost to a capacity cap at collection time.
    dropped: int = 0

    def messages(self) -> List[MessageId]:
        return distinct_messages(self.events)

    def lifecycle(self, message: MessageId) -> List[SpanEvent]:
        return sorted(
            (
                e for e in self.events
                if e.origin == message.origin and e.local_seq == message.local_seq
            ),
            key=lifecycle_sort_key,
        )

    def by_message(self) -> Dict[MessageId, List[SpanEvent]]:
        """All lifecycles at once (one pass, not one scan per message)."""
        grouped: Dict[MessageId, List[SpanEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.message_id, []).append(event)
        for events in grouped.values():
            events.sort(key=lifecycle_sort_key)
        return grouped

    def nodes(self) -> List[int]:
        ids = {e.node for e in self.events} | set(self.telemetry)
        return sorted(ids)

    def rings(self) -> List[int]:
        """Inner-ring ids present (multiring runs); empty otherwise."""
        return sorted({e.ring for e in self.events if e.ring is not None})

    def for_ring(self, ring: int) -> "Timeline":
        """The sub-timeline of one inner ring's span events."""
        return Timeline(
            events=[e for e in self.events if e.ring == ring],
            telemetry=self.telemetry,
            duration_s=self.duration_s,
        )

    def request_keys(self) -> List[tuple]:
        """Distinct ``(client, seq)`` request identities, sorted."""
        return sorted({(r.client, r.seq) for r in self.requests})

    # ------------------------------------------------------------------
    # Persistence (the merged-timeline artifact ``repro obs`` consumes)
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        entries = [
            {
                "type": "timeline_meta",
                "schema": TIMELINE_SCHEMA,
                "duration_s": self.duration_s,
                "nodes": self.nodes(),
                "dropped": self.dropped,
            },
            *(
                {"type": "telemetry", "node": node, "snapshot": self.telemetry[node]}
                for node in sorted(self.telemetry)
            ),
            *(event.to_dict() for event in self.events),
            *(request.to_dict() for request in self.requests),
        ]
        # Written once, after the run: no per-line flush (nothing here
        # has to survive a crash of the writer).
        with open(path, "w") as fh:
            fh.writelines(json.dumps(entry) + "\n" for entry in entries)

    @classmethod
    def load_jsonl(cls, path: str) -> "Timeline":
        entries = JsonlReader(path).poll()
        meta = next((e for e in entries if e.get("type") == "timeline_meta"), {})
        events = sorted(_events_of(entries, SpanEvent), key=lifecycle_sort_key)
        duration = float(meta.get("duration_s", 0.0))
        if events and not duration:
            duration = events[-1].time - min(e.time for e in events)
        return cls(
            events=events,
            telemetry={
                int(e["node"]): e["snapshot"]
                for e in entries if e.get("type") == "telemetry"
            },
            duration_s=duration,
            requests=sorted(_events_of(entries, RequestEvent), key=request_sort_key),
            dropped=int(meta.get("dropped", 0)),
        )


def rebase_request(event: RequestEvent, t0: float) -> RequestEvent:
    """``event.rebased(t0)`` — the name ``bench/`` rebases the client
    events it collected in the launcher process under (the monotonic
    clock is system-wide on Linux, so the node journals' ``t0`` puts
    them on one axis)."""
    return event.rebased(t0)


def merge_span_journals(
    paths: Dict[int, str], t0: Optional[float] = None
) -> Timeline:
    """Join per-node span journals into one cross-node timeline.

    ``t0`` is the rebase origin; pass the run's earliest node start so
    span times align with the merged ``ExperimentResult``.  Defaults to
    the earliest journal ``start_time``.  Journals that never started
    (missing/empty) are skipped — a crashed node contributes whatever
    it flushed before dying.
    """
    loaded = {}
    for node, path in paths.items():
        journal = load_span_journal(path)
        if journal is not None:
            loaded[node] = journal
    if not loaded:
        return Timeline()
    if t0 is None:
        t0 = min(journal["start_time"] for journal in loaded.values())
    events: List[SpanEvent] = []
    requests: List[RequestEvent] = []
    telemetry: Dict[int, Dict[str, Any]] = {}
    for node, journal in loaded.items():
        events.extend(event.rebased(t0) for event in journal["events"])
        requests.extend(event.rebased(t0) for event in journal["requests"])
        if journal["telemetry"]:
            telemetry[node] = journal["telemetry"][-1]["snapshot"]
    events.sort(key=lifecycle_sort_key)
    requests.sort(key=request_sort_key)
    duration = max(
        (e.time for e in events),
        default=max((r.time for r in requests), default=0.0),
    )
    return Timeline(
        events=events, telemetry=telemetry, duration_s=duration,
        requests=requests,
    )


def timeline_from_spanlog(
    spans: SpanLog, telemetry: Optional[Dict[int, Dict[str, Any]]] = None
) -> Timeline:
    """Wrap an in-memory (simulated) span log as a timeline."""
    events = sorted(spans.records(), key=lifecycle_sort_key)
    return Timeline(
        events=events,
        telemetry=dict(telemetry or {}),
        duration_s=max((e.time for e in events), default=0.0),
        dropped=spans.dropped,
    )
