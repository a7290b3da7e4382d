"""Message packing on top of any total order broadcast.

The paper's related work cites Friedman & van Renesse's result that
*packing* several application messages into one protocol message is a
powerful throughput boost for total ordering protocols [20].  This
module provides that as a composable wrapper: a
:class:`BatchingBroadcast` presents the ordinary
:class:`~repro.core.api.TotalOrderBroadcast` interface, coalesces
submissions into packs, and unpacks on delivery — preserving total
order and per-message identities.

Packing batches per-*origin*; the total order of packs induces a total
order of the contained messages (every receiver unpacks in pack order,
then in intra-pack order), so all broadcast properties carry over.

With the calibrated host model the per-message fixed CPU cost dominates
small messages; packing amortises it, which the ``packing`` case of
:mod:`repro.figures` quantifies.

This wrapper is simulator-only (it needs a :class:`Simulator` for its
flush timer and a ``max_delay_s`` to tune).  The live serve tier packs
client commands without either: :mod:`repro.serve.server` flushes what
one event-loop turn decoded as a single ``@batch`` command, unpacked by
:class:`~repro.smr.machine.ReplicatedStateMachine` (DESIGN.md §5h).
Below both sits the transport's ``KIND_BATCH`` frame, which coalesces
encoded ring *frames* per hop and saves syscalls, not protocol work;
:class:`~repro.live.transport.RingTransport` takes its two size caps
from a :class:`BatchingConfig` and, having no timer either, ignores
``max_delay_s`` (DESIGN.md §5g).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.api import BroadcastListener, TotalOrderBroadcast
from repro.errors import ConfigurationError, ProtocolError
from repro.types import MessageId, ProcessId, TimerHandle

if TYPE_CHECKING:  # simulator-only: a live node never loads the engine here
    from repro.sim.engine import Simulator

#: Bytes of framing per packed entry (length + id).
ENTRY_OVERHEAD_BYTES = 16


@dataclass(frozen=True)
class BatchingConfig:
    """Packing policy.

    A pack is flushed when it reaches ``max_batch_bytes`` (or
    ``max_batch_messages``), or ``max_delay_s`` after its first message
    was submitted — the usual throughput/latency dial.
    """

    max_batch_bytes: int = 60_000
    max_batch_messages: int = 64
    max_delay_s: float = 2e-3

    def __post_init__(self) -> None:
        if self.max_batch_bytes <= 0:
            raise ConfigurationError("max_batch_bytes must be positive")
        if self.max_batch_messages <= 0:
            raise ConfigurationError("max_batch_messages must be positive")
        if self.max_delay_s < 0:
            raise ConfigurationError("max_delay_s cannot be negative")


def batching_config_from_flags(
    batch_bytes: Optional[int],
    batch_messages: Optional[int],
    batch_delay_s: Optional[float],
) -> Optional[BatchingConfig]:
    """Shared ``--batch-*`` flag handling for ``repro run`` and ``repro live``.

    All three ``None`` means batching is off (returns ``None``); any
    subset set fills the rest from the :class:`BatchingConfig` defaults.
    Nonpositive values raise :class:`ConfigurationError` via the
    config's own validation — the sim and live paths reject identically.
    """
    if batch_bytes is None and batch_messages is None and batch_delay_s is None:
        return None
    defaults = BatchingConfig()
    return BatchingConfig(
        max_batch_bytes=(
            batch_bytes if batch_bytes is not None else defaults.max_batch_bytes
        ),
        max_batch_messages=(
            batch_messages if batch_messages is not None
            else defaults.max_batch_messages
        ),
        max_delay_s=(
            batch_delay_s if batch_delay_s is not None
            else defaults.max_delay_s
        ),
    )


@dataclass
class _Pack:
    """One packed protocol payload: a list of (id, payload, size)."""

    entries: List[Tuple[MessageId, Any, int]]

    def wire_size(self) -> int:
        return sum(size + ENTRY_OVERHEAD_BYTES for _, _, size in self.entries)


class BatchingBroadcast(TotalOrderBroadcast):
    """Packs small messages over an inner total order broadcast.

    Example::

        inner = cluster.nodes[0].protocol
        batched = BatchingBroadcast(cluster.sim, inner, origin=0)
        batched.set_listener(my_listener)
        batched.broadcast(b"tiny")   # coalesced with its neighbours
    """

    def __init__(
        self,
        sim: Simulator,
        inner: TotalOrderBroadcast,
        origin: ProcessId,
        config: Optional[BatchingConfig] = None,
    ) -> None:
        self.sim = sim
        self.inner = inner
        self.origin = origin
        self.config = config if config is not None else BatchingConfig()
        self._listener = BroadcastListener()
        self._open: List[Tuple[MessageId, Any, int]] = []
        self._open_bytes = 0
        self._flush_timer: Optional[TimerHandle] = None
        self._local_counter = 0
        self._started = False
        self.stats_packs_sent = 0
        self.stats_messages_packed = 0
        inner.set_listener(BroadcastListener(self._on_inner_deliver))

    # ------------------------------------------------------------------
    # TotalOrderBroadcast surface
    # ------------------------------------------------------------------
    def set_listener(self, listener: BroadcastListener) -> None:
        self._listener = listener

    def start(self) -> None:
        self._started = True
        self.inner.start()

    def stop(self) -> None:
        self._started = False
        self.inner.stop()

    def broadcast(self, payload: Any, size_bytes: Optional[int] = None) -> MessageId:
        if size_bytes is None:
            if isinstance(payload, (bytes, bytearray)):
                size_bytes = len(payload)
            else:
                raise ProtocolError("size_bytes is required for non-bytes payloads")
        self._local_counter += 1
        message_id = MessageId(origin=self.origin, local_seq=self._local_counter)
        self._open.append((message_id, payload, size_bytes))
        self._open_bytes += size_bytes + ENTRY_OVERHEAD_BYTES
        if (
            self._open_bytes >= self.config.max_batch_bytes
            or len(self._open) >= self.config.max_batch_messages
        ):
            self._flush()
        elif self._flush_timer is None:
            self._flush_timer = self.sim.schedule(
                self.config.max_delay_s, self._flush
            )
        return message_id

    def flush(self) -> None:
        """Force the open pack out (end of a burst, shutdown)."""
        self._flush()

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if not self._open:
            return
        pack = _Pack(entries=self._open)
        self._open = []
        self._open_bytes = 0
        self.stats_packs_sent += 1
        self.stats_messages_packed += len(pack.entries)
        self.inner.broadcast(pack, size_bytes=pack.wire_size())

    def _on_inner_deliver(
        self, origin: ProcessId, _pack_id: MessageId, payload: Any, size: int
    ) -> None:
        if isinstance(payload, _Pack):
            for message_id, entry_payload, entry_size in payload.entries:
                self._listener.deliver(origin, message_id, entry_payload, entry_size)
        else:
            # Interoperability: an unpacked peer's plain message.
            self._listener.deliver(origin, _pack_id, payload, size)
