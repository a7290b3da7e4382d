"""A node's record lists and journal lines, byte for byte.

A node keeps every record entry as a row of atoms and zips the rows
into dicts only for its record and its journal (``JOURNAL_LISTS``).
These tests script one node — no socket opened, the loop's clock set by
the script — and pin the JSON of its ``deliveries``, ``app_deliveries``
and ``broadcasts`` and every journal line it writes, for a single ring
and for ``shards=2`` (whose deliveries add ``ring`` and ``slot``).  The
expected strings are what the node wrote while it still kept one dict
per entry; a diff here means the record or journal format moved.
"""

import asyncio
import json
import os

import pytest

from repro.live.config import LiveClusterSpec, LiveNodeConfig
from repro.live.node import LiveNode
from repro.types import Delivery, MessageId, View

ME = 1
_RECORD_LISTS = ("deliveries", "app_deliveries", "broadcasts")


def scripted_node_output(shards, journal_path):
    """Drive node 1 of a three-member ring through a fixed script and
    return its record's three lists as JSON, its journal's lines and
    its rows."""
    spec = LiveClusterSpec(
        processes=3, senders=3, shards=shards, message_bytes=64, window=3,
        messages_per_sender=5, sim_compare=False,
    )
    config = LiveNodeConfig(
        spec=spec, node_id=ME,
        ring_addresses=[
            {pid: ("127.0.0.1", 20000 + 10 * ring + pid) for pid in range(3)}
            for ring in range(shards)
        ],
        journal_path=journal_path,
    )
    loop = asyncio.new_event_loop()
    clock = [10.0]
    loop.time = lambda: clock[0]
    asyncio.set_event_loop(loop)
    try:
        node = LiveNode(config, loop, asyncio.Event())
        node.process.start()
        node._refill()  # three own broadcasts at t = 10

        def deliver(sequence, origin, local_seq, size):
            ring = slot = None
            if shards > 1:
                ring, slot = sequence % shards, sequence // shards
            node._on_protocol_deliver(Delivery(
                ME, MessageId(origin, local_seq), sequence, clock[0], size,
                ring=ring, slot=slot,
            ))
            node._on_app_deliver(
                origin, MessageId(origin, local_seq), bytes(size), size
            )

        script = [
            (0, 1, 64), (1, 1, 64), (1, 2, 64), (2, 1, 64),
            (1, 3, 64), (0, 2, 64),
        ]
        for sequence, (origin, local_seq, size) in enumerate(script, 1):
            clock[0] += 0.125
            deliver(sequence, origin, local_seq, size)
        clock[0] += 0.5
        loop.run_until_complete(asyncio.sleep(0))  # the refill: two more
        clock[0] += 0.25
        node._rewire(View(view_id=3, members=(0, 1, 2)))
        sequence = len(script)
        for origin, local_seq in ((1, 4), (1, 5), (0, 3), (1, 6), (2, 2)):
            sequence += 1
            clock[0] += 0.0625
            # (1, 6) is this node's end marker: no app delivery entry.
            deliver(sequence, origin, local_seq, 0 if local_seq == 6 else 64)
        clock[0] += 1.0
        record = loop.run_until_complete(node.record())
    finally:
        asyncio.set_event_loop(None)
        loop.close()
    lists = json.dumps({name: record[name] for name in _RECORD_LISTS})
    with open(journal_path) as fh:
        return lists, fh.read().splitlines(), node.rows


def _golden():
    """``{shards: (lists JSON, journal lines)}`` from the golden file."""
    path = os.path.join(os.path.dirname(__file__), "node_records.golden")
    golden = {}
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("SHARDS "):
                lines = golden[int(line.split()[1])] = []
            else:
                lines.append(line)
    return {shards: (lines[0], lines[1:]) for shards, lines in golden.items()}


@pytest.mark.parametrize("shards", [1, 2])
def test_record_lists_and_journal_lines_are_byte_identical(shards, tmp_path):
    lists, lines, _rows = scripted_node_output(
        shards, str(tmp_path / "journal.jsonl")
    )
    expected_lists, expected_lines = _golden()[shards]
    assert lists == expected_lists
    assert lines == expected_lines


@pytest.mark.parametrize("shards", [1, 2])
def test_rows_hold_only_atoms(shards, tmp_path):
    """A row the cyclic GC would have to walk (a ``Delivery``, a
    ``MessageId``) costs loop lag on every collection of a long run."""
    _lists, _lines, rows = scripted_node_output(
        shards, str(tmp_path / "journal.jsonl")
    )
    for kind in ("delivery", "app_delivery", "broadcast"):
        assert rows[kind], kind
        for row in rows[kind]:
            assert type(row) is tuple
            assert all(type(v) in (int, float, type(None)) for v in row), row
