"""Property tests for the replicated session dedup table.

The exactly-once contract (DESIGN.md §5h): for *any* interleaving of
retries, reorders and duplicates of a client's requests, every request
executes against the inner machine exactly once, and every re-sent
already-acknowledged request is answered from the response cache with
the outcome of its first execution — including deterministic errors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ProtocolError
from repro.serve.session import (
    ERROR,
    OK,
    SessionMachine,
    SessionState,
    lease_command,
    session_command,
)
from repro.smr.kvstore import KVStore
from repro.smr.machine import (
    BATCH_OP,
    Command,
    ReplicatedStateMachine,
    batch_command,
)
from tests.smr.test_machine_gaps import _RecordingBroadcast

# One logical request: (op, args) over a tiny key space.  ``bogus`` and
# ``incr`` on a string key are deterministic errors; they must dedup
# exactly like successes.
_OPS = st.sampled_from([
    ("put", ("a", 1)),
    ("put", ("b", "text")),
    ("incr", ("a", 2)),
    ("incr", ("b", 1)),  # ProtocolError once "b" holds text
    ("get", ("a",)),
    ("delete", ("a",)),
    ("cas", ("a", 1, 2)),
    ("bogus", ("a",)),   # always a ProtocolError
])


@st.composite
def delivery_schedules(draw):
    """A per-client request list plus an adversarial delivery order.

    Every request is delivered at least once; duplicates are injected
    and the whole stream is shuffled arbitrarily (cross-client reorder
    is unrestricted; same-client reorder models failover interleaving).
    """
    clients = draw(st.lists(
        st.sampled_from(["alice", "bob", "carol"]),
        min_size=1, max_size=3, unique=True,
    ))
    requests = []
    for client in clients:
        ops = draw(st.lists(_OPS, min_size=1, max_size=6))
        for seq, op_args in enumerate(ops, start=1):
            # first_unacked=1: the client never acks, so nothing is
            # pruned and any duplicate may arrive at any time.
            requests.append((client, seq, 1, *op_args))
    duplicates = draw(st.lists(
        st.sampled_from(requests), min_size=0, max_size=8,
    ))
    schedule = requests + duplicates
    permutation = draw(st.permutations(schedule))
    return requests, permutation


@given(delivery_schedules())
@settings(max_examples=120, deadline=None)
def test_any_interleaving_applies_each_request_exactly_once(schedule):
    requests, deliveries = schedule
    machine = SessionMachine(KVStore())
    first_applies = []
    machine.on_session_apply(
        lambda client, seq, op, args, outcome, index:
            first_applies.append((client, seq))
    )
    outcomes = {}
    for client, seq, first_unacked, op, args in deliveries:
        outcome = machine.apply(session_command(client, seq, first_unacked, op, args))
        key = (client, seq)
        if key in outcomes:
            # A duplicate must see the first execution's exact outcome.
            assert outcomes[key] == outcome
        else:
            outcomes[key] = outcome

    distinct = {(client, seq) for client, seq, *_ in requests}
    # Exactly one first-application per distinct request, no more.
    assert sorted(first_applies) == sorted(distinct)
    assert machine.session_applies == len(distinct)
    assert machine.dedup_hits == len(deliveries) - len(distinct)
    # Every outcome is a tagged status the server can serve from cache.
    assert all(status in (OK, ERROR) for status, _ in outcomes.values())


@given(delivery_schedules())
@settings(max_examples=60, deadline=None)
def test_replicas_converge_under_different_interleavings(schedule):
    """Duplicates are invisible to state: a replica that sees the
    adversarial stream (duplicates everywhere) ends with the same inner
    state and session table as one that saw only the first deliveries
    in the same relative order."""
    requests, deliveries = schedule
    machine_a = SessionMachine(KVStore())
    machine_b = SessionMachine(KVStore())
    firsts = []
    seen = set()
    for delivery in deliveries:
        key = delivery[:2]
        if key not in seen:
            seen.add(key)
            firsts.append(delivery)
    # Replica A applies the adversarial stream; replica B only the
    # first deliveries, in the same relative order.
    for client, seq, first_unacked, op, args in deliveries:
        machine_a.apply(session_command(client, seq, first_unacked, op, args))
    for client, seq, first_unacked, op, args in firsts:
        machine_b.apply(session_command(client, seq, first_unacked, op, args))
    snap_a = machine_a.snapshot()
    snap_b = machine_b.snapshot()
    # Duplicates bump applied_index (every ordered command does) but
    # must not change inner state or cached outcomes.
    assert snap_a["inner"] == snap_b["inner"]
    assert snap_a["sessions"] == snap_b["sessions"]


def _replica():
    machine = SessionMachine(KVStore())
    # The tests hand deliveries to the RSM themselves.
    rsm = ReplicatedStateMachine(_RecordingBroadcast(), machine)
    outcomes = []
    rsm.on_apply(lambda index, origin, command, result: outcomes.append(result))
    firsts = []
    machine.on_session_apply(
        lambda client, seq, op, args, outcome, index:
            firsts.append((client, seq, index))
    )
    return machine, rsm, outcomes, firsts


@given(delivery_schedules(), st.data())
@settings(max_examples=100, deadline=None)
def test_any_partition_into_batches_equals_the_unbatched_run(schedule, data):
    """Group commit is invisible to the replicated state: however the
    delivered command stream (duplicates and retries included) is cut
    into ``@batch`` broadcasts (each replica here gets its own cut),
    outcomes, ``applied_index``, ``dedup_hits``, first-application
    indices and ``snapshot()`` equal the one-command-per-broadcast run."""
    _requests, deliveries = schedule
    commands = [session_command(*delivery) for delivery in deliveries]
    plain, plain_rsm, plain_outcomes, plain_firsts = _replica()
    for index, command in enumerate(commands):
        plain_rsm.deliver(0, f"m{index}", command.encode(), size=1)

    for replica in range(2):
        cuts = data.draw(
            st.lists(st.integers(1, len(commands)), max_size=len(commands)),
            label=f"batch sizes on replica {replica}",
        )
        machine, rsm, outcomes, firsts = _replica()
        start = 0
        for number, size in enumerate([*cuts, len(commands)]):
            chunk = commands[start:start + size]
            start += size
            if chunk:
                rsm.deliver(0, f"b{number}", batch_command(chunk).encode(), size=1)
        assert outcomes == plain_outcomes
        assert firsts == plain_firsts
        assert rsm.applied_count == plain_rsm.applied_count == len(commands)
        assert machine.applied_index == plain.applied_index
        assert machine.dedup_hits == plain.dedup_hits
        assert machine.session_applies == plain.session_applies
        assert machine.snapshot() == plain.snapshot()


def test_rsm_path_never_hands_the_session_machine_a_batch():
    """``@batch`` is unpacked in one place, the RSM delivery path:
    ``SessionMachine.apply``'s own batch branch exists only for
    stand-ins without an RSM and must stay dead under one."""
    seen = []

    class Watched(SessionMachine):
        def apply(self, command):
            seen.append(command.op)
            return super().apply(command)

    machine = Watched(KVStore())
    rsm = ReplicatedStateMachine(_RecordingBroadcast(), machine)
    commands = [session_command("c", seq, 1, "put", ("k", seq)) for seq in (1, 2, 3)]
    rsm.deliver(0, "b0", batch_command(commands).encode(), size=1)
    rsm.deliver(0, "m1", commands[0].encode(), size=1)  # a lone duplicate
    assert seen == ["@session"] * 4
    assert machine.applied_index == 4 and machine.dedup_hits == 1


@given(delivery_schedules(), st.data())
@settings(max_examples=40, deadline=None)
def test_a_machine_driven_directly_applies_a_batch_like_its_commands(schedule, data):
    """Apply-on-submit stand-ins hand ``@batch`` straight to
    ``SessionMachine.apply``: same outcomes, same state."""
    _requests, deliveries = schedule
    commands = [session_command(*delivery) for delivery in deliveries]
    cut = data.draw(st.integers(0, len(commands)), label="cut")
    plain = SessionMachine(KVStore())
    expected = [plain.apply(command) for command in commands]
    batched = SessionMachine(KVStore())
    got = []
    for chunk in (commands[:cut], commands[cut:]):
        if chunk:
            result = batched.apply(batch_command(chunk))
            got.extend(result if len(chunk) > 1 else [result])
    assert got == expected
    assert batched.snapshot() == plain.snapshot()
    assert batched.dedup_hits == plain.dedup_hits


@pytest.mark.parametrize("args", [
    (),
    (["@session", ["c", 1, 1, "put", ["a", 1]]], ["@batch", []]),
    (["@session", ["c", 1, 1, "put", ["a", 1]]], "junk"),
    (["@session", ["c", 1, 1, "put", ["a", 1]]], ["@session"]),
])
def test_malformed_batches_rejected_before_any_sub_command_applies(args):
    machine, rsm, outcomes, firsts = _replica()
    with pytest.raises(ProtocolError):
        rsm.deliver(0, "m0", Command(BATCH_OP, args).encode(), size=1)
    with pytest.raises(ProtocolError):
        machine.apply(Command(BATCH_OP, args))
    assert outcomes == [] and firsts == []
    assert machine.applied_index == 0 and machine.sessions == {}


@given(
    st.lists(_OPS, min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_pruning_never_drops_a_retryable_response(ops, data):
    """With an honestly advancing ``first_unacked`` cursor, any seq the
    client may still retry (>= first_unacked) stays answerable from the
    cache, and the cache never grows past the unacked window."""
    machine = SessionMachine(KVStore())
    acked = 0
    for seq, (op, args) in enumerate(ops, start=1):
        first_unacked = acked + 1
        outcome = machine.apply(
            session_command("c", seq, first_unacked, op, args)
        )
        # Retry of anything not yet acked: cached, not re-executed.
        retry_seq = data.draw(
            st.integers(min_value=first_unacked, max_value=seq),
            label="retry_seq",
        )
        op_r, args_r = ops[retry_seq - 1]
        applies_before = machine.session_applies
        retry_outcome = machine.apply(
            session_command("c", retry_seq, first_unacked, op_r, args_r)
        )
        assert machine.session_applies == applies_before
        if retry_seq == seq:
            assert retry_outcome == outcome
        # The client acks a prefix (or not) before the next request.
        acked = data.draw(
            st.integers(min_value=acked, max_value=seq), label="acked"
        )
    state = machine.sessions["c"]
    assert state.floor <= acked
    assert all(seq > state.floor for seq in state.results)


@given(delivery_schedules())
@settings(max_examples=40, deadline=None)
def test_snapshot_restore_round_trip_preserves_dedup(schedule):
    _requests, deliveries = schedule
    machine = SessionMachine(KVStore())
    for client, seq, first_unacked, op, args in deliveries:
        machine.apply(session_command(client, seq, first_unacked, op, args))
    snap = machine.snapshot()

    restored = SessionMachine(KVStore())
    restored.restore(snap)
    assert restored.snapshot() == snap
    # A duplicate delivered after restore still hits the dedup table.
    client, seq, first_unacked, op, args = deliveries[0]
    before = restored.session_applies
    outcome = restored.apply(session_command(client, seq, first_unacked, op, args))
    assert restored.session_applies == before
    assert outcome == machine.lookup(client, seq)


def test_session_state_lookup_below_floor_is_a_pruned_error():
    state = SessionState()
    state.record(1, (OK, None))
    state.record(2, (OK, "x"))
    state.prune(3)  # client acked 1 and 2
    assert state.floor == 2
    assert state.results == {}
    status, message = state.lookup(1)
    assert status == ERROR and "pruned" in message
    assert state.lookup(3) is None
    assert state.applied_seq() == 2


@given(st.lists(
    st.tuples(st.integers(1, 40), st.integers(1, 45)), min_size=1, max_size=60,
))
@settings(max_examples=120, deadline=None)
def test_prune_and_applied_seq_match_the_full_scan_definitions(steps):
    """The range-walking ``prune`` and the running-max ``applied_seq``
    are the scan-everything definitions, for any seq / cursor sequence
    (stale cursors, jumps past the whole cache, gaps)."""
    state = SessionState()
    floor, results = 0, {}
    for seq, first_unacked in steps:
        state.prune(first_unacked)
        if first_unacked - 1 > floor:
            floor = first_unacked - 1
            results = {s: o for s, o in results.items() if s > floor}
        if state.lookup(seq) is None:
            state.record(seq, (OK, seq))
            results[seq] = (OK, seq)
        assert (state.floor, state.results) == (floor, results)
        assert state.applied_seq() == max(results, default=floor)
    # ``high`` is derived, not state: a restored session agrees.
    restored = SessionState(floor=state.floor, results=dict(state.results))
    assert restored.applied_seq() == state.applied_seq()
    assert restored == state


def test_floor_never_regresses():
    state = SessionState()
    state.prune(5)
    assert state.floor == 4
    state.prune(2)  # stale cursor from a reordered duplicate
    assert state.floor == 4


def test_malformed_envelopes_rejected():
    machine = SessionMachine(KVStore())
    with pytest.raises(ProtocolError):
        machine.apply(Command("@session", ("c", 1, 1)))  # too few fields
    with pytest.raises(ProtocolError):
        machine.apply(session_command("c", 0, 1, "put", ("a", 1)))
    with pytest.raises(ProtocolError):
        machine.apply(session_command("c", True, 1, "put", ("a", 1)))
    with pytest.raises(ProtocolError):
        machine.apply(Command("@lease", (1,)))


def test_lease_commands_are_noops_with_upcalls():
    machine = SessionMachine(KVStore())
    renewals = []
    machine.on_lease_apply(lambda node, t: renewals.append((node, t)))
    inner_before = machine.inner.snapshot()
    assert machine.apply(lease_command(2, 1.5)) is None
    assert renewals == [(2, 1.5)]
    assert machine.lease_applies == 1
    assert machine.inner.snapshot() == inner_before


def test_local_read_bypasses_apply_and_rejects_mutations():
    machine = SessionMachine(KVStore())
    machine.apply(session_command("c", 1, 1, "put", ("a", 7)))
    index = machine.applied_index
    assert machine.local_read(Command("get", ("a",))) == 7
    assert machine.applied_index == index
    with pytest.raises(ProtocolError):
        machine.local_read(Command("put", ("a", 8)))
