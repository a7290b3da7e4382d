"""A scripted FSR ring with no simulator, sockets or codec.

``n`` automata over static membership, wired by an in-memory FIFO —
the way ``bench/layers.py`` drives its null ring — so a test can step
the protocol one frame at a time, capture a frame off the wire and
replay it (what the live transport's resend-after-reconnect does).
"""

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Tuple

from repro.core.api import BroadcastListener
from repro.core.fsr import FSRConfig
from repro.core.fsr.process import FSRProcess
from repro.failure.detector import StaticDetector
from repro.net.dispatch import SilentPort
from repro.types import MessageId
from repro.vsc.membership import GroupMembership

Frame = Tuple[int, int, Any]  # (dst, src, message)


class CountingScheduler:
    """A ``Scheduler`` that stands still and counts reads of its clock."""

    def __init__(self) -> None:
        self.now_reads = 0

    @property
    def now(self) -> float:
        self.now_reads += 1
        return 0.0

    def schedule(self, delay: float, callback: Callable, *args: Any):
        raise AssertionError("a static ring arms no timer")


class _FifoPort:
    def __init__(self, node_id: int, ring: "NullRing") -> None:
        self.node_id = node_id
        self._ring = ring

    def send(self, dst: int, message: Any, size_bytes=None) -> None:
        frame = (dst, self.node_id, message)
        self._ring.sent.append(frame)
        self._ring.fifo.append(frame)

    def on_receive(self, handler) -> None:
        self._ring.handlers[self.node_id] = handler


class NullRing:
    """``n`` started FSR processes; ``run()`` drains the wire."""

    def __init__(self, n: int = 3, t: int = 1, **process_kwargs: Any) -> None:
        self.sched = CountingScheduler()
        self.fifo: Deque[Frame] = deque()
        self.handlers: Dict[int, Callable[[int, Any], None]] = {}
        #: Every frame ever put on the wire, in order.
        self.sent: List[Frame] = []
        #: Application deliveries per process, as ``(origin, message_id)``.
        self.delivered: Dict[int, List[Tuple[int, MessageId]]] = {}
        self.processes: List[FSRProcess] = []
        members = tuple(range(n))
        for me in members:
            membership = GroupMembership(
                self.sched, SilentPort(me), StaticDetector(), me=me,
                initial_members=members,
            )
            process = FSRProcess(
                self.sched, _FifoPort(me, self), membership, FSRConfig(t=t),
                **process_kwargs,
            )
            log = self.delivered[me] = []
            process.set_listener(BroadcastListener(
                lambda origin, mid, _payload, _size, _log=log: _log.append(
                    (origin, mid)
                )
            ))
            self.processes.append(process)
        for process in self.processes:
            process.start()

    def inject(self, dst: int, src: int, message: Any) -> None:
        """Put ``message`` on the wire again, as a transport resend would."""
        self.fifo.append((dst, src, message))

    def run(self) -> None:
        while self.fifo:
            dst, src, message = self.fifo.popleft()
            self.handlers[dst](src, message)

    def broadcast(self, sender: int, payload: bytes = b"x" * 64) -> MessageId:
        """TO-broadcast from ``sender`` and run the ring until it is quiet."""
        message_id = self.processes[sender].broadcast(payload)
        self.run()
        return message_id
