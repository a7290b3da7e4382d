"""Simulated switched-LAN substrate.

This package models the paper's cluster network (Section 3 of the
paper): homogeneous machines on a fully switched LAN with

* **full-duplex** NICs — a node can send and receive simultaneously,
* **separate collision domains** — traffic between one pair of nodes
  never interferes with traffic between a disjoint pair,
* **serialisation at the NIC** — a node sends at most one message at a
  time and receives at most one message at a time; concurrent arrivals
  queue in the switch.

These three constraints are exactly what make ring-based dissemination
fast (every NIC carries each payload once) and sequencer-based
dissemination slow (the sequencer's RX carries ``n-1`` copies), so the
model preserves the paper's throughput comparisons by construction.
"""

from repro._exports import lazy_getattr

#: Public name -> the module that defines it, resolved on first use.
_EXPORTS = {
    "Datagram": "repro.net.message",
    "WireMessage": "repro.net.message",
    "Network": "repro.net.network",
    "NetworkEndpoint": "repro.net.network",
    "NicStats": "repro.net.network",
    "FramingModel": "repro.net.params",
    "NetworkParams": "repro.net.params",
    "ReliableChannel": "repro.net.channel",
    "ChannelStack": "repro.net.channel",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
