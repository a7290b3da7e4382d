"""FSR fault-tolerance tests: crashes, view changes, recovery.

Uniform total order must survive any ``t`` crashes; these tests crash
leaders, backups, standard processes — alone and in combination, at
awkward moments — and run the full checker battery on the outcome.
"""

import pytest

from repro.checker import (
    check_integrity,
    check_sequence_consistency,
    check_total_order,
    check_uniformity,
)
from repro.core.fsr import FSRConfig
from repro.core.fsr.messages import AckBatch, FwdData, SeqData
from tests.conftest import small_cluster
from tests.fsr.nullring import NullRing


def _run_with_crashes(n, t, crashes, plan, max_time_s=60.0):
    """Inject ``plan`` broadcasts, crash per schedule, run to quiescence."""
    cluster = small_cluster(n=n, protocol_config=FSRConfig(t=t))
    cluster.start()
    cluster.run(until=5e-3)
    expected_from_correct = 0
    crashed_pids = {pid for pid, _ in crashes}
    for sender, count, size in plan:
        for _ in range(count):
            cluster.broadcast(sender, size_bytes=size)
        if sender not in crashed_pids:
            expected_from_correct += count
    for pid, at in crashes:
        cluster.schedule_crash(pid, time=at)
    # Correct senders' messages must all complete (validity).
    cluster.run_until(
        lambda: all(
            sum(
                1
                for d in cluster.nodes[node].app_deliveries
                if d.origin not in crashed_pids
            )
            >= expected_from_correct
            for node in cluster.nodes
            if node not in cluster.injector.crashed()
        ),
        step_s=10e-3,
        max_time_s=max_time_s,
    )
    cluster.run(until=cluster.sim.now + 20e-3)
    return cluster.results()


def _assert_uniform(result):
    check_integrity(result)
    check_total_order(result)
    check_sequence_consistency(result)
    check_uniformity(result)


@pytest.mark.parametrize("victim", [0, 1, 3])
def test_single_crash_any_role(victim):
    """Leader (0), backup (1), or standard (3) crash mid-stream."""
    result = _run_with_crashes(
        n=5, t=1,
        crashes=[(victim, 0.03)],
        plan=[(pid, 6, 5_000) for pid in range(5)],
    )
    _assert_uniform(result)
    survivors = [p for p in range(5) if p != victim]
    logs = {p: [str(d.message_id) for d in result.delivery_logs[p].deliveries]
            for p in survivors}
    reference = logs[survivors[0]]
    assert all(log == reference for log in logs.values())


def test_crash_with_t2_two_failures():
    result = _run_with_crashes(
        n=6, t=2,
        crashes=[(0, 0.03), (1, 0.05)],
        plan=[(pid, 5, 5_000) for pid in range(6)],
    )
    _assert_uniform(result)


def test_leader_and_backup_crash_simultaneously():
    result = _run_with_crashes(
        n=6, t=2,
        crashes=[(0, 0.04), (1, 0.0401)],
        plan=[(pid, 5, 5_000) for pid in range(6)],
    )
    _assert_uniform(result)


def test_sender_crash_loses_only_its_own_tail():
    """A crashed sender's unsequenced messages may vanish, but nothing
    else may, and whatever of its messages any survivor delivered must
    be delivered by all (uniformity)."""
    result = _run_with_crashes(
        n=5, t=1,
        crashes=[(4, 0.03)],
        plan=[(pid, 8, 5_000) for pid in range(5)],
    )
    _assert_uniform(result)
    survivors = [p for p in range(5) if p != 4]
    for origin_alive in (0, 1, 2, 3):
        for survivor in survivors:
            delivered = [
                d for d in result.app_deliveries[survivor]
                if d.origin == origin_alive
            ]
            assert len(delivered) == 8, (
                f"correct sender {origin_alive}'s messages incomplete at "
                f"{survivor}"
            )


def test_crash_during_burst_of_large_messages():
    result = _run_with_crashes(
        n=4, t=1,
        crashes=[(0, 0.05)],
        plan=[(pid, 4, 50_000) for pid in range(4)],
        max_time_s=120.0,
    )
    _assert_uniform(result)


def test_successive_view_changes():
    """Crash one process, let the system recover, crash another."""
    result = _run_with_crashes(
        n=6, t=2,
        crashes=[(2, 0.03), (0, 0.12)],
        plan=[(pid, 6, 5_000) for pid in range(6)],
        max_time_s=120.0,
    )
    _assert_uniform(result)


def test_crash_all_but_one():
    """n-1 crashes with t = n-1: the last process still makes progress."""
    result = _run_with_crashes(
        n=3, t=2,
        crashes=[(0, 0.03), (1, 0.06)],
        plan=[(pid, 5, 2_000) for pid in range(3)],
        max_time_s=120.0,
    )
    _assert_uniform(result)
    assert len(result.app_deliveries[2]) >= 5


def test_crashed_process_log_is_prefix():
    """A crashed process's delivery log is a prefix of the survivors'."""
    result = _run_with_crashes(
        n=5, t=1,
        crashes=[(2, 0.04)],
        plan=[(pid, 6, 5_000) for pid in range(5)],
    )
    crashed_log = [str(d.message_id) for d in result.delivery_logs[2].deliveries]
    survivor_log = [str(d.message_id) for d in result.delivery_logs[0].deliveries]
    assert crashed_log == survivor_log[: len(crashed_log)]


def test_recovery_with_segmentation():
    """Crash mid-stream while large messages are segmented."""
    cluster = small_cluster(
        n=4, protocol_config=FSRConfig(t=1, segment_size=5_000)
    )
    cluster.start()
    cluster.run(until=5e-3)
    for pid in range(4):
        for _ in range(3):
            cluster.broadcast(pid, size_bytes=18_000)
    cluster.schedule_crash(3, time=0.05)
    cluster.run_until(
        lambda: all(
            sum(1 for d in cluster.nodes[p].app_deliveries if d.origin != 3) >= 9
            for p in (0, 1, 2)
        ),
        max_time_s=120.0,
    )
    result = cluster.results()
    _assert_uniform(result)


def test_view_change_continues_sequences_monotonically():
    result = _run_with_crashes(
        n=5, t=1,
        crashes=[(0, 0.04)],
        plan=[(pid, 6, 5_000) for pid in range(5)],
    )
    for pid, log in result.delivery_logs.items():
        sequences = [d.sequence for d in log.deliveries]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)


# ----------------------------------------------------------------------
# Transport-level duplicates: RingTransport resends its queued frames
# after a reconnect, so every frame may arrive a second time, arbitrarily
# late.  Scripted on a null ring (no simulator: the DES never resends).
# ----------------------------------------------------------------------
def _state_sizes(ring):
    return [
        (
            len(p._seq_of), len(p._known_payloads), len(p._consumed_acks),
            p.retained_count,
        )
        for p in ring.processes
    ]


def test_late_duplicate_fwd_data_is_not_sequenced_again():
    """A resent ``FwdData`` reaching the leader after its message was
    delivered and garbage-collected used to get a second sequence number
    and kill every process with "delivered twice"."""
    ring = NullRing(n=3, t=1)
    first = ring.broadcast(2)
    (captured,) = [
        frame for frame in ring.sent if isinstance(frame[2], FwdData)
    ]
    assert captured[0] == 0 and captured[2].message_id == first
    for _ in range(5):  # the watermark passes the first message
        ring.broadcast(2)
    leader = ring.processes[0]
    assert leader._gc_cursor >= 1 and first not in leader._seq_of
    next_seq = leader._next_seq
    delivered = {me: list(log) for me, log in ring.delivered.items()}
    sizes = _state_sizes(ring)

    ring.inject(*captured)
    ring.run()  # must not raise ProtocolError

    assert leader._next_seq == next_seq
    assert ring.delivered == delivered
    assert _state_sizes(ring) == sizes
    # The ring still works, and the duplicate left no hole in the order.
    ring.broadcast(1)
    assert [len(log) for log in ring.delivered.values()] == [7, 7, 7]
    assert len({tuple(log) for log in ring.delivered.values()}) == 1


def test_replayed_collected_flush_leaves_state_bounded():
    """Resent ``SeqData`` and acks for sequences every process already
    collected must not be stored again: the GC cursor never returns to
    them, so they would stay for the life of the process."""
    ring = NullRing(n=3, t=1)
    for sender in (0, 1, 2, 0, 1, 2):
        ring.broadcast(sender)
    flush = [
        frame for frame in ring.sent if isinstance(frame[2], (SeqData, AckBatch))
    ]
    replayed = max(
        ack.sequence
        for frame in flush if isinstance(frame[2], AckBatch)
        for ack in frame[2].acks
    )
    for sender in (0, 1, 2, 0, 1, 2):
        ring.broadcast(sender)
    assert all(p._gc_cursor >= replayed for p in ring.processes)
    delivered = {me: list(log) for me, log in ring.delivered.items()}
    sizes = _state_sizes(ring)

    for frame in flush:
        ring.inject(*frame)
    ring.run()

    assert _state_sizes(ring) == sizes
    assert ring.delivered == delivered
