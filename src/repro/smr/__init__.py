"""State machine replication on top of total order broadcast.

The paper's introduction motivates TO-broadcast as the ordering core of
software-based replication: every replica applies the same commands in
the same order, so their states never diverge.  This package provides
that thin layer — commands in, deterministic state out — plus a small
replicated key-value store used by the examples and tests.
"""

from repro.smr.machine import (
    BATCH_OP,
    Command,
    ReplicatedStateMachine,
    StateMachine,
    batch_command,
    unbatch,
)
from repro.smr.kvstore import KVStore

__all__ = [
    "BATCH_OP",
    "Command",
    "ReplicatedStateMachine",
    "StateMachine",
    "KVStore",
    "batch_command",
    "unbatch",
]
