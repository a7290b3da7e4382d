"""Discrete-event simulation engine.

The engine is deliberately minimal: a time-ordered event heap with
deterministic tie-breaking, cancellable timers, seeded random-number
streams, and a structured trace log.  Everything else in the library —
the network model, the failure detector, the protocols — is built as
callbacks scheduled on this engine.
"""

from repro._exports import lazy_getattr

#: Public name -> the module that defines it, resolved on first use.
_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "RngRegistry": "repro.sim.rng",
    "TraceLog": "repro.sim.trace",
    "TraceRecord": "repro.sim.trace",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
