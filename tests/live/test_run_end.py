"""A run ends on evidence, not a silence.

* A static node stops once it has delivered every sender's end marker
  (the zero-length broadcast a sender ends its workload with) and its
  ring links have written what it owes its successor.  A ring link the
  shaper holds back for a second is a slow link, not a finished run:
  every node waits for the held tail, with a fixed count and with a
  duration workload alike.
* The chaos launcher stops a live-membership run once the survivors'
  journals prove it over (:class:`repro.chaos.live.RunEvidence`),
  checked here over synthetic journal lines, without a socket.
* A spec a node cannot run is refused before anything is launched.
"""

import os

import pytest

from repro.chaos.live import LiveChaosConfig, RunEvidence
from repro.chaos.schedules import FaultEvent
from repro.cli import main
from repro.errors import ConfigurationError
from repro.live.runner import LiveCluster, LiveClusterSpec, run_live_cluster
from repro.types import MessageId

pytestmark = pytest.mark.live_smoke


@pytest.mark.parametrize("workload, partition_at", [
    ({"messages_per_sender": 5}, 0.0),
    ({"duration_s": 1.0}, 0.9),
])
def test_a_held_link_is_waited_for_not_taken_for_the_end(workload, partition_at):
    # Ring 0 -> 1 -> 2 -> 0; the cut holds everything node 0 (the only
    # sender, and the sequencer) sends its successor for a second.
    cut = FaultEvent(
        "partial_partition", partition_at, duration_s=1.0, link=(0, 1)
    )
    live = run_live_cluster(LiveClusterSpec(
        processes=3,
        senders=1,
        t=1,
        message_bytes=1_000,
        window=2,
        max_run_s=8.0,
        sim_compare=False,
        netem_events=[cut.to_dict()],
        netem_scenario="held_link",
        netem_seed=1,
        **workload,
    ))
    assert live.order_ok, live.order_error
    assert not live.timed_out
    sent = live.outcome.sent[0]
    if "messages_per_sender" in workload:
        assert len(sent) == 5
    for pid, record in live.node_records.items():
        delivered = [
            MessageId(d["msg_origin"], d["local_seq"])
            for d in record["app_deliveries"]
        ]
        assert delivered == sent, f"node {pid} stopped before the held tail"
        # The end marker is the last protocol delivery, and only there.
        marker = record["deliveries"][-1]
        assert (marker["origin"], marker["size_bytes"]) == (0, 0)
        assert marker["local_seq"] == len(sent) + 1


@pytest.mark.parametrize("senders", [1, 4])
def test_every_node_of_a_static_ring_stops_cleanly(senders, capfd):
    live = run_live_cluster(LiveClusterSpec(
        processes=4,
        senders=senders,
        t=1,
        message_bytes=2_000,
        duration_s=0.5,
        window=2,
        max_run_s=20.0,
        sim_compare=False,
        log_level="WARNING",
    ))
    # run_live_cluster raises unless every node exited 0.
    assert live.order_ok, live.order_error
    assert not live.timed_out
    assert sorted(live.node_records) == [0, 1, 2, 3]
    for record in live.node_records.values():
        ended = {d["origin"] for d in record["deliveries"] if not d["size_bytes"]}
        assert ended == set(range(senders))
    # A node that stops first hangs up on its predecessor; the
    # predecessor stops too instead of failing on the re-dial.
    err = capfd.readouterr().err
    assert "unreachable" not in err and "transport failure" not in err, err


# -- the launcher's predicate over journal lines -----------------------------
def _view(view_id, members):
    return {"type": "view", "view_id": view_id, "members": list(members)}


def _broadcast(origin, seq):
    return {"type": "broadcast", "origin": origin, "local_seq": seq,
            "size_bytes": 100}


def _delivery(origin, seq, size=100):
    return {"type": "delivery", "origin": origin, "local_seq": seq,
            "sequence": seq, "size_bytes": size}


#: The bootstrap view, and the view after nodes 1 and 3 were killed.
BOOT = (0, (0, 1, 2, 3))
AFTER_KILLS = [BOOT, (1, (0, 2))]


def _journals(views):
    """A finished run: every member of the last view journals each view,
    and delivers sender 0's two messages and its end marker."""
    members = views[-1][1]
    lines = {pid: [_view(*view) for view in views] for pid in members}
    lines[0] += [_broadcast(0, 1), _broadcast(0, 2)]
    for pid in members:
        lines[pid] += [_delivery(0, 1), _delivery(0, 2), _delivery(0, 3, 0)]
    return lines


def _evidence(lines, senders=(0,)):
    evidence = RunEvidence(senders)
    for pid, events in lines.items():
        evidence.add(pid, events)
    return evidence


def test_the_run_is_over_once_the_journals_prove_it():
    assert _evidence(_journals(AFTER_KILLS)).done(killed={1, 3})
    # Killed sender 1 owes no end marker.
    assert _evidence(_journals(AFTER_KILLS), senders=(0, 1)).done({1, 3})
    assert _evidence(_journals([BOOT, (1, (0, 1, 2))])).done(killed={3})


def test_a_killed_node_still_in_the_newest_view_holds_the_run():
    lines = _journals([BOOT])
    del lines[3]
    assert not _evidence(lines).done(killed={3})
    # The view without it is installed, but one member has not
    # journalled it yet.
    lines = _journals([BOOT, (1, (0, 1, 2))])
    lines[2].pop(1)
    assert not _evidence(lines).done(killed={3})


def test_a_member_missing_a_marker_holds_the_run():
    lines = _journals(AFTER_KILLS)
    lines[2].pop()
    lines[2].append(_delivery(1, 1))  # the same count, but no marker
    assert not _evidence(lines).done(killed={1, 3})


def test_unequal_delivery_counts_hold_the_run():
    lines = _journals(AFTER_KILLS)
    lines[0].append(_delivery(2, 1))
    assert not _evidence(lines).done(killed={1, 3})


def test_an_undelivered_broadcast_holds_the_run():
    lines = _journals(AFTER_KILLS)
    lines[2].append(_broadcast(2, 1))
    assert not _evidence(lines).done(killed={1, 3})


# -- values a node cannot run --------------------------------------------------
@pytest.mark.parametrize("flag, value", [
    ("--size", "-1"), ("--size", "0"), ("--window", "0"), ("--duration", "0"),
])
def test_live_rejects_a_spec_before_launching(capsys, monkeypatch, flag, value):
    def launch(*args, **kwargs):
        raise AssertionError("a cluster was launched")

    monkeypatch.setattr(LiveCluster, "__init__", launch)
    assert main(["live", flag, value, "--no-sim", "--out", os.devnull]) == 2
    assert "invalid live spec" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"message_bytes": 0}, {"window": 0}, {"messages_per_sender": 0},
    {"max_run_s": 0}, {"connect_timeout_s": -1},
])
def test_the_spec_and_the_chaos_config_refuse_what_a_node_cannot_run(bad):
    with pytest.raises(ConfigurationError, match=next(iter(bad))):
        LiveClusterSpec(processes=3, **bad)
    if "messages_per_sender" not in bad:
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            LiveChaosConfig(**bad)
