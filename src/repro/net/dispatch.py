"""Layer demultiplexing over one channel stack.

A node runs several independent layers over the same NIC — heartbeats,
membership control traffic, and the total-order protocol itself.  Each
layer gets a named :class:`Port`; messages are wrapped in a two-byte
layer tag on the wire and routed to the right handler on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigurationError, NetworkError
from repro.net.channel import ChannelStack
from repro.net.message import message_size
from repro.types import ProcessId

#: Wire cost of the layer tag.
TAG_BYTES = 2

ReceiveHandler = Callable[[ProcessId, Any], None]


@dataclass
class _Enveloped:
    """A layer-tagged message on the wire."""

    layer: str
    inner: Any
    inner_size: int

    def wire_size_bytes(self) -> int:
        return self.inner_size + TAG_BYTES


class Port:
    """One layer's view of the node's network stack."""

    def __init__(self, demux: "LayerDemux", layer: str) -> None:
        self._demux = demux
        self.layer = layer

    @property
    def node_id(self) -> ProcessId:
        return self._demux.node_id

    def send(self, dst: ProcessId, message: Any, size_bytes: Optional[int] = None) -> None:
        """Send ``message`` to the same layer at ``dst``."""
        self._demux.send(self.layer, dst, message, size_bytes)

    def on_receive(self, handler: ReceiveHandler) -> None:
        """Register this layer's delivery upcall."""
        self._demux.register(self.layer, handler)


class SilentPort:
    """Port of a layer with nobody to talk to (static membership)."""

    def __init__(self, node_id: ProcessId) -> None:
        self.node_id = node_id

    def send(self, dst: ProcessId, message: Any, size_bytes: Optional[int] = None) -> None:
        raise NetworkError(
            "static membership never sends (a live node runs membership "
            "over TCP only with view_changes enabled)"
        )

    def on_receive(self, handler: ReceiveHandler) -> None:
        pass


class LayerDemux:
    """Routes tagged messages between layers sharing one channel stack."""

    def __init__(self, stack: ChannelStack) -> None:
        self._stack = stack
        self._handlers: Dict[str, ReceiveHandler] = {}
        stack.on_receive(self._on_receive)

    @property
    def node_id(self) -> ProcessId:
        return self._stack.node_id

    def port(self, layer: str) -> Port:
        """Create the port for ``layer`` (one per layer name)."""
        if layer in self._handlers:
            raise ConfigurationError(f"layer {layer!r} already has a port")
        self._handlers[layer] = _ignore
        return Port(self, layer)

    def register(self, layer: str, handler: ReceiveHandler) -> None:
        if layer not in self._handlers:
            raise ConfigurationError(f"no port was created for layer {layer!r}")
        self._handlers[layer] = handler

    def send(
        self, layer: str, dst: ProcessId, message: Any, size_bytes: Optional[int]
    ) -> None:
        inner_size = message_size(message) if size_bytes is None else size_bytes
        self._stack.send(dst, _Enveloped(layer, message, inner_size))

    def _on_receive(self, src: ProcessId, message: Any) -> None:
        if not isinstance(message, _Enveloped):
            raise ConfigurationError(
                f"untagged message {type(message).__name__} reached LayerDemux"
            )
        handler = self._handlers.get(message.layer, _ignore)
        handler(src, message.inner)


def _ignore(_src: ProcessId, _message: Any) -> None:
    """Default handler: drop messages for layers with no receiver yet."""
