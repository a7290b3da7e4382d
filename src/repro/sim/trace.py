"""Structured trace logging for simulations.

Traces are the debugging backbone of the library: every subsystem emits
``(time, source, kind, detail)`` records into a shared
:class:`TraceLog`.  Tests assert on traces, and failed property-based
tests dump them to explain the shrunk counterexample.

Tracing is off by default, and the emission discipline is
:class:`repro.obs.event.EventLog`'s, shared with the span and request
logs: a site on a per-message path (every one in ``core/fsr``) tests
``trace.enabled`` *before* it reads the clock or formats an id, so a
disabled log costs that one attribute check per emit.  An unguarded
``emit`` is still safe — it re-checks — but has paid for its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.event import EventLog
from repro.types import SimTime


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace event."""

    time: SimTime
    source: str
    kind: str
    detail: Dict[str, object]

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:.6f}] {self.source} {self.kind} {fields}"


class TraceLog(EventLog[TraceRecord]):
    """The simulator's in-memory debugging trace.

    Example::

        trace = TraceLog(enabled=True)
        trace.emit(0.5, "net", "send", src=0, dst=1, bytes=1500)
        assert trace.count(kind="send") == 1
    """

    record_type = TraceRecord

    def emit(self, time: SimTime, source: str, kind: str, **detail: object) -> None:
        """Record one event if tracing is enabled."""
        if self.enabled:
            super().emit(time, source, kind, detail)

    def records(
        self, source: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceRecord]:
        """Return records, optionally filtered by source and/or kind."""
        return super().records(source=source, kind=kind)

    def count(self, source: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Count records matching the filters."""
        return super().count(source=source, kind=kind)

    def last(
        self, source: Optional[str] = None, kind: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """Return the most recent matching record, or ``None``."""
        matches = self.records(source, kind)
        return matches[-1] if matches else None
