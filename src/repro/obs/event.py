"""The one event model: flat records and the log that holds them.

Every observation stream — the simulator's debugging trace
(:class:`repro.sim.trace.TraceLog`), per-message lifecycle spans
(:class:`repro.obs.span.SpanLog`), per-request serve events
(:class:`repro.obs.reqtrace.RequestLog`) — is an :class:`EventLog` of
one frozen record type, so the emission discipline exists once:

* **disabled by default, free when disabled** — call sites guard with
  ``if log.enabled:`` *before* building arguments, so a disabled log
  costs one attribute check and allocates nothing; ``emit`` re-checks
  so direct calls stay safe;
* **capacity** caps what accumulates in memory; **sinks** (a live
  node's JSONL journal) see every record as it is emitted;
* a record is **dropped** only when it reached *no* destination — live
  nodes run ``capacity=0`` with a journal sink, which is streaming.

The journalled record types derive :class:`Event`, whose JSON shape and
rebase are read off the dataclass fields rather than written per type.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, Tuple, Type, TypeVar

R = TypeVar("R")
E = TypeVar("E", bound="Event")


@functools.lru_cache(maxsize=None)
def _field_parsers(cls: type) -> Tuple[Tuple[str, Callable[[Any], Any], bool], ...]:
    """``(name, scalar type, required)`` per field of a flat event class."""
    hints = typing.get_type_hints(cls)
    parsers = []
    for spec in dataclasses.fields(cls):
        hint = hints[spec.name]
        # Optional[int] -> int; a bare scalar type has no args.
        scalar = next(
            (arg for arg in typing.get_args(hint) if arg is not type(None)), hint
        )
        parsers.append((spec.name, scalar, spec.default is dataclasses.MISSING))
    return tuple(parsers)


class Event:
    """Base of the flat, frozen, journalled record dataclasses.

    A subclass is a ``@dataclass(frozen=True)`` of scalar fields
    (``float``/``int``/``str``, possibly ``Optional``) starting with
    ``time``, plus the :attr:`TYPE` tag of its journal lines.  Flat on
    purpose: one JSONL object and one allocation per event.
    """

    #: ``"type"`` of this record's journal lines (unannotated: not a field).
    TYPE = ""
    time: float

    def to_dict(self) -> Dict[str, Any]:
        """The journal line: ``type`` first, then the set fields in order."""
        out: Dict[str, Any] = {"type": self.TYPE}
        for name in self.__dataclass_fields__:  # type: ignore[attr-defined]
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls: Type[E], data: Dict[str, Any]) -> E:
        """Parse one journal line.  Files reach ``repro obs`` from outside
        the program: a missing required field is a ``KeyError``, a value
        of the wrong shape a ``ValueError``/``TypeError``."""
        kwargs = {}
        for name, scalar, required in _field_parsers(cls):
            value = data.get(name)
            if value is not None:
                kwargs[name] = scalar(value)
            elif required:
                raise KeyError(name)
        return cls(**kwargs)

    def rebased(self: E, t0: float) -> E:
        """This event on a time axis whose origin is ``t0``."""
        if t0 == 0.0:
            return self
        return dataclasses.replace(self, time=self.time - t0)  # type: ignore[type-var]


class EventLog(Generic[R]):
    """Append-only in-memory log of one record type with cheap filtering.

    Subclasses name their :attr:`record_type`; :meth:`emit` takes that
    type's fields, positionally or by keyword.
    """

    record_type: Type[R]

    def __init__(self, enabled: bool = False, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self._records: List[R] = []
        self._capacity = capacity
        self._dropped = 0
        self._sinks: List[Callable[[R], None]] = []

    def emit(self, *args: Any, **kwargs: Any) -> None:
        """Record one event if the log is enabled."""
        if not self.enabled:
            return
        record = self.record_type(*args, **kwargs)
        if self._capacity is None or len(self._records) < self._capacity:
            self._records.append(record)
        elif not self._sinks:
            self._dropped += 1
        for sink in self._sinks:
            sink(record)

    def add_sink(self, sink: Callable[[R], None]) -> None:
        """Stream every future record to ``sink`` (``print``, a journal)."""
        self._sinks.append(sink)

    def records(self, **where: Any) -> List[R]:
        """Records whose fields equal every non-``None`` filter given."""
        return list(self._iter(where))

    def count(self, **where: Any) -> int:
        return sum(1 for _ in self._iter(where))

    @property
    def dropped(self) -> int:
        """Records that reached neither the in-memory store nor a sink."""
        return self._dropped

    def _iter(self, where: Dict[str, Any]) -> Iterator[R]:
        wanted = [(name, value) for name, value in where.items() if value is not None]
        for record in self._records:
            if all(getattr(record, name) == value for name, value in wanted):
                yield record

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        # A log is a facility, not a container: an empty or stream-only
        # (capacity=0) log must not read as "no log" in `log or default`.
        return True

    def dump(self, limit: int = 200) -> str:
        """Render the last ``limit`` records as text (for test failures)."""
        lines = [str(record) for record in self._records[-limit:]]
        if len(self._records) > limit:
            lines.insert(0, f"... ({len(self._records) - limit} earlier records elided)")
        return "\n".join(lines)
