"""Core total-order-broadcast abstractions and the FSR protocol.

``repro.core.api`` defines the interface every protocol in this
repository implements (FSR and the five baseline classes); the
``repro.core.fsr`` subpackage is the paper's contribution.
"""

from repro._exports import lazy_getattr

#: Public name -> the module that defines it, resolved on first use.
_EXPORTS = {
    "BroadcastListener": "repro.core.api",
    "DeliveryLog": "repro.core.api",
    "TotalOrderBroadcast": "repro.core.api",
    "BatchingBroadcast": "repro.core.batching",
    "BatchingConfig": "repro.core.batching",
    "FSRConfig": "repro.core.fsr",
    "FSRProcess": "repro.core.fsr",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
