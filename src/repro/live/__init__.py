"""Live asyncio TCP runtime for FSR.

The discrete-event simulator (``repro.sim``) predicts FSR's behaviour;
this package *measures* it.  The same protocol automaton
(:class:`~repro.core.fsr.process.FSRProcess`) runs unmodified over real
sockets because it is written against the
:class:`~repro.types.Scheduler` protocol rather than the simulator:

* :mod:`repro.live.codec` — length-prefixed binary wire format whose
  byte counts match ``wire_size_bytes()`` exactly, so live traffic
  volume is directly comparable with simulated traffic volume.
* :mod:`repro.live.scheduler` — ``Scheduler`` implementation backed by
  an asyncio event loop.
* :mod:`repro.live.transport` — ring transport: one persistent TCP
  connection to the ring successor, reconnect with capped backoff.
* :mod:`repro.live.config` — the cluster spec and each node's placement.
* :mod:`repro.live.node` — one FSR process hosted in one OS process.
* :mod:`repro.live.runner` — multi-process localhost cluster launcher
  and benchmark driver (``python -m repro live``).
"""
