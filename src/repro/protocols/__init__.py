"""Baseline total-order broadcast protocols (paper Section 2).

One implementation per class of the Défago–Schiper–Urbán taxonomy the
paper surveys, each written against the same
:class:`~repro.core.api.TotalOrderBroadcast` interface as FSR so every
benchmark can swap protocols freely:

* :mod:`~repro.protocols.fixed_sequencer` — Figure 1 of the paper.
* :mod:`~repro.protocols.moving_sequencer` — Figure 2.
* :mod:`~repro.protocols.privilege` — Figure 3.
* :mod:`~repro.protocols.communication_history` — §2.4.
* :mod:`~repro.protocols.destination_agreement` — §2.5.

The baselines target the paper's failure-free performance comparison;
they implement correct total order under crash-free runs (verified by
the same checkers as FSR).  Only the fixed sequencer also implements
view-change recovery (sequencer failover through the same membership
flush as FSR); the others do not — the paper compares their
throughput, not their fault tolerance.  The round model
(:mod:`repro.rounds`) hosts these same classes.
"""

from repro.protocols.registry import PROTOCOLS, ProtocolContext, build_protocol

__all__ = ["PROTOCOLS", "ProtocolContext", "build_protocol"]
