"""Unit tests for crash-surviving journal parsing (no subprocesses).

A SIGKILLed node's journal is all the evidence it leaves.  The loader
must tolerate the one corruption a kill can cause — a torn final line —
and must refuse journals that never reached the start barrier (nothing
the oracle can use, and their absence must read as "node never ran",
not as an empty delivery log).
"""

import json

from repro.live.runner import load_journal_record


def _write(path, lines, torn_tail=None):
    with open(path, "w") as handle:
        for line in lines:
            handle.write(json.dumps(line) + "\n")
        if torn_tail is not None:
            handle.write(torn_tail)  # no newline: cut mid-write
    return str(path)


def test_journal_round_trips_events_and_tolerates_torn_tail(tmp_path):
    path = _write(
        tmp_path / "node1.journal.jsonl",
        [
            {"type": "start", "time": 10.0, "node_id": 1},
            {"type": "broadcast", "time": 10.1, "origin": 1, "local_seq": 1,
             "size_bytes": 64, "submit_time": 10.1},
            {"type": "delivery", "time": 10.2, "origin": 1, "local_seq": 1,
             "sequence": 1, "size_bytes": 64},
            {"type": "view", "time": 10.3, "view_id": 1, "members": [0, 1]},
        ],
        torn_tail='{"type": "delivery", "time": 10.4, "orig',
    )
    record = load_journal_record(1, path)
    assert record is not None
    assert record["node_id"] == 1
    assert record["start_time"] == 10.0
    assert record["end_time"] == 10.3  # last *intact* event
    assert [d["local_seq"] for d in record["deliveries"]] == [1]
    assert [b["local_seq"] for b in record["broadcasts"]] == [1]
    assert "sent" not in record  # merge_node_records reads "broadcasts"
    assert record["views"][-1]["view_id"] == 1


def test_journal_without_start_line_is_rejected(tmp_path):
    path = _write(
        tmp_path / "node2.journal.jsonl",
        [{"type": "delivery", "time": 1.0, "origin": 0, "local_seq": 1,
          "sequence": 1, "size_bytes": 64}],
    )
    assert load_journal_record(2, path) is None


def test_missing_journal_is_rejected(tmp_path):
    assert load_journal_record(3, str(tmp_path / "absent.jsonl")) is None
