"""Layer-boundary spans recorded from the benchmark's own files.

The node processes of a traced run get ``bench/hook`` on their
``PYTHONPATH`` (``repro.live.runner._node_env`` preserves it), whose
``sitecustomize`` calls :func:`install_from_env` before ``repro``
starts.  :func:`install` then wraps the public entry points of each
layer — nothing under ``src/`` changes — and the wrappers keep, in
memory until the process exits:

* **totals for every call**: calls and *self* CPU time per layer (the
  span's thread-CPU duration minus the part its child spans cover), so
  the layer numbers of one process add up to at most its CPU time;
* **full spans for a 1-in-64 id sample**: name, wall start/end
  (``CLOCK_MONOTONIC`` ns, comparable across processes), parent span
  and the message / request id they belong to.

Self time is measured on the thread CPU clock, not the wall clock: with
three busy node processes on two cores a wall-clock span also counts
the time the process sat descheduled inside it.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Environment variable naming the directory trace files are written to.
ENV_DIR = "REPRO_BENCH_TRACE_DIR"
#: One id in this many gets its full spans kept.
SAMPLE_EVERY = 64

#: An id is ``(kind, owner, number)``: ("m", origin, local_seq) for a
#: broadcast, ("r", client, seq) for a request.
Ident = Tuple[str, Any, int]
IdentOf = Callable[[tuple, Any], Optional[Ident]]


class Tracer:
    """Per-process span recorder; one instance per traced process."""

    def __init__(self, sample_every: int = SAMPLE_EVERY) -> None:
        self.sample_every = sample_every
        #: layer -> [calls, self CPU ns]
        self.totals: Dict[str, List[int]] = {}
        #: (layer, wall start ns, wall end ns, parent span index or -1, id)
        self.spans: List[Optional[tuple]] = []
        #: Open spans: [child CPU ns, span index or -1, id]
        self._stack: List[list] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        ident_of: Optional[IdentOf] = None,
        late: bool = False,
    ) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer``.

        ``ident_of(args, result)`` names the message or request the call
        belongs to; with ``late`` it is only known from the result (a
        decode), otherwise it is taken from the arguments on entry.  A
        span below a sampled span is sampled too and inherits its id.
        """
        totals = self.totals.setdefault(layer, [0, 0])
        stack = self._stack
        spans = self.spans
        every = self.sample_every
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            ident = None
            span = -1
            if parent is not None and parent[1] >= 0:
                ident = parent[2]
            elif ident_of is not None and not late:
                ident = ident_of(args, None)
                if ident is not None and ident[2] % every:
                    ident = None
            wall0 = 0
            if ident is not None:
                span = len(spans)
                spans.append(None)
            if span >= 0 or late:
                wall0 = wall()
            frame = [0, span, ident]
            stack.append(frame)
            result = None
            cpu0 = cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = cpu() - cpu0
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if span >= 0:
                    spans[span] = (
                        layer, wall0, wall(),
                        parent[1] if parent is not None else -1, ident,
                    )
                elif late and result is not None:
                    ident = ident_of(args, result)
                    if ident is not None and not ident[2] % every:
                        spans.append((layer, wall0, wall(), -1, ident))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "argv": sys.argv,
            "totals": {
                layer: {"calls": calls, "self_ns": self_ns}
                for layer, (calls, self_ns) in self.totals.items()
            },
            "spans": [
                {
                    "layer": s[0], "start_ns": s[1], "end_ns": s[2],
                    "parent": s[3], "id": list(s[4]) if s[4] else None,
                }
                for s in self.spans if s is not None
            ],
        }

    def write(self, directory: str) -> str:
        path = os.path.join(directory, f"trace.{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)
        return path


# -- ids -------------------------------------------------------------------
def _message_ident(message: Any) -> Optional[Ident]:
    mid = getattr(message, "message_id", None)
    if mid is None:
        return None
    return ("m", mid.origin, mid.local_seq)


def _ident_arg(position: int) -> IdentOf:
    def ident(args: tuple, _result: Any) -> Optional[Ident]:
        return _message_ident(args[position])
    return ident


def _ident_result(_args: tuple, result: Any) -> Optional[Ident]:
    if isinstance(result, tuple):  # decode_frame -> (message, consumed)
        result = result[0]
    return _message_ident(result)


def _ident_broadcast(_args: tuple, result: Any) -> Optional[Ident]:
    return ("m", result.origin, result.local_seq)


def _ident_delivery(args: tuple, _result: Any) -> Optional[Ident]:
    mid = args[2]  # (self, origin, message_id, payload, size)
    return ("m", mid.origin, mid.local_seq)


def _ident_command(args: tuple, _result: Any) -> Optional[Ident]:
    command = args[1]
    if command.op != "@session":
        return None
    return ("r", command.args[0], command.args[1])


def _ident_wire_object(args: tuple, _result: Any) -> Optional[Ident]:
    obj = args[0]
    return ("r", getattr(obj, "client", ""), obj.seq)


def _ident_wire_result(_args: tuple, result: Any) -> Optional[Ident]:
    return ("r", getattr(result, "client", ""), result.seq)


# -- patching --------------------------------------------------------------
def _rebind_everywhere(original: Any, replacement: Any) -> None:
    """Point every ``from x import name`` alias of ``original`` (in the
    modules loaded so far) at ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
            "repro"
        ):
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, replacement)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with ``tracer`` spans."""
    # Importing the node module pulls in the whole live + serve stack,
    # so by-name aliases exist before they are rebound.
    import repro.live.node  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.server  # noqa: F401
    from repro.core.fsr.process import FSRProcess
    from repro.live import codec
    from repro.live.transport import RingTransport
    from repro.serve import wire
    from repro.serve.session import SessionMachine
    from repro.smr.machine import ReplicatedStateMachine

    def function(module: Any, name: str, layer: str, ident_of: IdentOf,
                 late: bool = False) -> None:
        original = getattr(module, name)
        _rebind_everywhere(
            original, tracer.wrap(layer, original, ident_of, late)
        )

    def method(cls: type, name: str, layer: str,
               ident_of: Optional[IdentOf] = None, late: bool = False) -> None:
        setattr(cls, name, tracer.wrap(layer, getattr(cls, name), ident_of, late))

    function(codec, "encode_frame", "codec.encode", _ident_arg(0))
    method(codec.FrameEncoder, "encode_frame", "codec.encode", _ident_arg(1))
    function(codec, "decode_frame", "codec.decode", _ident_result, late=True)
    function(codec, "decode_message", "codec.decode", _ident_result, late=True)
    method(FSRProcess, "on_message", "fsr", _ident_arg(2))
    method(FSRProcess, "broadcast", "fsr", _ident_broadcast, late=True)
    method(FSRProcess, "on_tx_ready", "fsr")
    method(RingTransport, "send", "transport.send", _ident_arg(2))
    method(ReplicatedStateMachine, "deliver", "smr.deliver", _ident_delivery)
    method(SessionMachine, "apply", "session.apply", _ident_command)
    function(wire, "encode_request", "wire", _ident_wire_object)
    function(wire, "encode_response", "wire", _ident_wire_object)
    function(wire, "decode_request", "wire", _ident_wire_result, late=True)
    function(wire, "decode_response", "wire", _ident_wire_result, late=True)


def install_from_env() -> Optional[Tracer]:
    """Called by ``bench/hook/sitecustomize.py`` in every child."""
    directory = os.environ.get(ENV_DIR)
    if not directory:
        return None
    tracer = Tracer()
    install(tracer)
    atexit.register(tracer.write, directory)
    return tracer


# -- reading the files back (benchmark side) -------------------------------
def load_traces(directory: str) -> List[Dict[str, Any]]:
    traces = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("trace.") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                traces.append(json.load(fh))
    return traces


def self_us_by_layer(traces: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self CPU µs per layer, summed over the processes' trace files."""
    out: Dict[str, float] = {}
    for trace in traces:
        for layer, total in trace["totals"].items():
            out[layer] = out.get(layer, 0.0) + total["self_ns"] / 1e3
    return out
