"""Gap coverage for the SMR layer: error paths and snapshot plumbing.

These paths matter once real clients drive the replicated machine
(``repro.serve``): a malformed or adversarial command must be a
deterministic rejection — identical on every replica — never a replica
crash, and snapshots must round-trip for the dedup-table state the
session layer persists through them.
"""

import pytest

from repro.errors import ProtocolError
from repro.smr import (
    BATCH_OP,
    Command,
    KVStore,
    ReplicatedStateMachine,
    batch_command,
    unbatch,
)
from repro.smr.machine import MAX_UNCOLLECTED_RESULTS


# -- Command codec edge cases ------------------------------------------
@pytest.mark.parametrize("payload", [
    b"5",                      # not a [op, args] pair
    b"{}",                     # empty object
    b'{"op": "put"}',          # object, not a pair
    b'["put", 7]',             # args not iterable
    b'["put"]',                # too few elements
    b'["put", [], []]',        # too many elements
    b"\xff\xfe not json",
])
def test_command_decode_rejects_malformed_payloads(payload):
    with pytest.raises(ProtocolError):
        Command.decode(payload)


# -- KVStore error paths -----------------------------------------------
def test_kvstore_bad_arity_is_a_deterministic_rejection():
    store = KVStore()
    with pytest.raises(ProtocolError):
        store.apply(Command("put", ("only-one-arg",)))
    with pytest.raises(ProtocolError):
        store.apply(Command("get", ()))
    with pytest.raises(ProtocolError):
        store.apply(Command("cas", ("k",)))
    # The failed commands left no partial state behind.
    assert store.snapshot() == {}


def test_kvstore_bad_incr_amount_rejected():
    store = KVStore()
    store.apply(Command("put", ("k", 1)))
    with pytest.raises(ProtocolError):
        store.apply(Command("incr", ("k", "not-a-number")))
    assert store.apply(Command("get", ("k",))) == 1


def test_kvstore_snapshot_restore_round_trip():
    store = KVStore()
    store.apply(Command("put", ("a", 1)))
    store.apply(Command("put", ("b", ["nested", {"x": None}])))
    snap = store.snapshot()

    other = KVStore()
    other.restore(snap)
    assert other.snapshot() == snap
    assert other.apply(Command("get", ("b",))) == ["nested", {"x": None}]
    # Restore replaces, not merges.
    other.restore({})
    assert len(other) == 0


def test_kvstore_snapshot_is_isolated_from_the_store():
    store = KVStore()
    store.apply(Command("put", ("a", 1)))
    snap = store.snapshot()
    snap["a"] = 99
    snap["rogue"] = True
    assert store.apply(Command("get", ("a",))) == 1
    assert store.apply(Command("get", ("rogue",))) is None


# -- ReplicatedStateMachine plumbing -----------------------------------
class _RecordingBroadcast:
    """Minimal TotalOrderBroadcast stand-in: records, delivers on demand."""

    def __init__(self) -> None:
        self.listener = None
        self.sent = []

    def set_listener(self, listener) -> None:
        self.listener = listener

    def broadcast(self, payload: bytes):
        message_id = f"m{len(self.sent)}"
        self.sent.append((message_id, payload))
        return message_id


def test_rsm_public_deliver_matches_listener_path():
    broadcast = _RecordingBroadcast()
    rsm = ReplicatedStateMachine(broadcast, KVStore())
    applies = []
    rsm.on_apply(lambda index, origin, command, result:
                 applies.append((index, origin, command.op, result)))

    message_id = rsm.submit(Command("put", ("k", "v")))
    # A multiplexing runtime forwards deliveries explicitly.
    rsm.deliver(2, message_id, broadcast.sent[0][1], size=10)
    assert rsm.applied_count == 1
    assert rsm.result_of(message_id) is None  # put of a fresh key
    assert applies == [(1, 2, "put", None)]
    assert rsm.snapshot() == {"k": "v"}


def test_rsm_result_of_unknown_message_is_none():
    rsm = ReplicatedStateMachine(_RecordingBroadcast(), KVStore())
    assert rsm.result_of("never-delivered") is None


def test_rsm_undecodable_delivery_raises_protocol_error():
    rsm = ReplicatedStateMachine(_RecordingBroadcast(), KVStore())
    with pytest.raises(ProtocolError):
        rsm.deliver(0, "m0", b"garbage", size=7)
    assert rsm.applied_count == 0


def test_rsm_local_read_rejects_mutations():
    rsm = ReplicatedStateMachine(_RecordingBroadcast(), KVStore())
    rsm.deliver(0, "m0", Command("put", ("k", 5)).encode(), size=1)
    assert rsm.local_read(Command("get", ("k",))) == 5
    with pytest.raises(ProtocolError):
        rsm.local_read(Command("delete", ("k",)))
    assert rsm.applied_count == 1  # the rejected read applied nothing


# -- @batch envelopes ---------------------------------------------------
def test_rsm_unpacks_a_batch_into_per_command_applies():
    broadcast = _RecordingBroadcast()
    rsm = ReplicatedStateMachine(broadcast, KVStore())
    applies = []
    rsm.on_apply(lambda index, origin, command, result:
                 applies.append((index, origin, command.op, result)))
    commands = [
        Command("put", ("k", 1)), Command("incr", ("k", 2)), Command("get", ("k",)),
    ]
    message_id = rsm.submit(batch_command(commands))
    rsm.deliver(1, message_id, broadcast.sent[0][1], size=10)
    # Counters and callbacks are per sub-command, as if sent one by one.
    assert rsm.applied_count == 3
    assert applies == [(1, 1, "put", None), (2, 1, "incr", 3), (3, 1, "get", 3)]
    assert rsm.result_of(message_id) == [None, 3, 3]
    assert rsm.snapshot() == {"k": 3}


def test_batch_of_one_is_the_command_itself():
    command = Command("put", ("k", "v"))
    assert batch_command([command]) is command
    assert unbatch(command) == (command,)


@pytest.mark.parametrize("args", [
    (),                                              # empty
    (["put", ["k", 1]], ["@batch", [["put", ["k", 2]]]]),  # nested
    (["put", ["k", 1]], ["put"]),                    # entry too short
    (["put", ["k", 1]], ["put", 7]),                 # args not iterable
    (["put", ["k", 1]], 5),                          # entry not a pair
    (["put", ["k", 1]], [None, ["k"]]),              # op not a string
    (["put", ["k", 1]], "ab"),                       # a 2-char string unpacks
    (["put", ["k", 1]], {"put": 1, "k": 2}),         # so does a 2-key dict
    (["put", ["k", 1]], ["put", "k1"]),              # args a string, not a list
    (["put", ["k", 1]], ["put", {"k": 1}]),          # args a dict
    (["put", ["k", 1]], ["put", ["k", 1], 3]),       # entry too long
])
def test_malformed_batch_is_rejected_before_anything_applies(args):
    rsm = ReplicatedStateMachine(_RecordingBroadcast(), KVStore())
    with pytest.raises(ProtocolError):
        rsm.deliver(0, "m0", Command(BATCH_OP, args).encode(), size=1)
    # The well-formed first entry was NOT applied.
    assert rsm.applied_count == 0
    assert rsm.snapshot() == {}


# -- bounded result retention ------------------------------------------
def test_rsm_results_stay_bounded_over_many_deliveries():
    broadcast = _RecordingBroadcast()
    rsm = ReplicatedStateMachine(broadcast, KVStore())
    payload = Command("incr", ("n", 1)).encode()
    for index in range(10_000):  # other replicas' commands
        rsm.deliver(1, f"remote{index}", payload, size=1)
    assert len(rsm._local_results) == 0
    for _ in range(100):  # our own, each collected once applied
        message_id = rsm.submit(Command("incr", ("n", 1)))
        assert rsm.result_of(message_id) is None  # not applied yet
        rsm.deliver(0, message_id, payload, size=1)
        assert rsm.result_of(message_id) == rsm.applied_count
        assert rsm.result_of(message_id) is None  # handed over once
    assert len(rsm._local_results) == 0
    assert rsm.applied_count == 10_100


def test_rsm_uncollected_results_have_a_constant_bound():
    # A caller that never asks result_of (the serve tier hears outcomes
    # through callbacks) holds a constant number of entries, newest kept.
    broadcast = _RecordingBroadcast()
    rsm = ReplicatedStateMachine(broadcast, KVStore())
    payload = Command("incr", ("n", 1)).encode()
    ids = []
    for _ in range(10_000):
        ids.append(rsm.submit(Command("incr", ("n", 1))))
        rsm.deliver(0, ids[-1], payload, size=1)
        assert len(rsm._local_results) <= MAX_UNCOLLECTED_RESULTS
    assert len(rsm._local_results) == MAX_UNCOLLECTED_RESULTS
    assert rsm.result_of(ids[0]) is None  # aged out
    assert rsm.result_of(ids[-1]) == 10_000
    assert rsm.snapshot() == {"n": 10_000}
