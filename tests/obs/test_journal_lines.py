"""The node journal's hot lines and its one-write-per-turn writer.

The hot line types (``delivery``, ``app_delivery``, ``broadcast`` and
serve's ``apply``) are rendered from fixed templates, not built as dicts
for ``json.dumps``.  Readers (the launcher, the chaos battery, the
benchmark's journal tails) parse them as JSON and some match on bytes,
so each template must write what ``json.dumps`` of the dict writes, byte
for byte, over any values those rows can hold.

The writer holds appended lines for the rest of the loop turn and
writes them in one write; a lifecycle line written in between goes
behind them, so the file keeps the order the lines were journalled in.
"""

import asyncio
import json

from hypothesis import given, settings, strategies as st

from repro.live.config import JOURNAL_LISTS
from repro.live.node import _ROW_LINES
from repro.obs.journal import JsonlWriter, json_string, line_template
from repro.serve.server import _APPLY_LINE

numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Client ids with quotes, backslashes, control characters, non-ASCII
# and lone surrogates: everything ``json.dumps`` escapes.
texts = st.one_of(
    st.text(),
    st.text(alphabet='"\\\n\t\x00\x7fé \ud800\U0001f600ab'),
)


def test_every_hot_row_shape_has_a_template():
    for kind, (_name, fields) in JOURNAL_LISTS.items():
        if kind != "view":
            assert (kind, len(fields)) in _ROW_LINES
    assert ("delivery", 5) in _ROW_LINES  # a single-ring delivery


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_templates_write_what_json_dumps_writes(data):
    (kind, length), template = data.draw(st.sampled_from(sorted(_ROW_LINES.items())))
    row = tuple(data.draw(numbers) for _ in range(length))
    fields = JOURNAL_LISTS[kind][1][:length]
    expected = json.dumps({"type": kind, **dict(zip(fields, row))}) + "\n"
    assert template % row == expected


@settings(max_examples=300, deadline=None)
@given(
    client=texts, seq=numbers, op=texts, status=texts, index=numbers,
    time=numbers,
)
def test_the_apply_template_writes_what_json_dumps_writes(
    client, seq, op, status, index, time
):
    line = _APPLY_LINE % (
        json_string(client), seq, json_string(op), json_string(status),
        index, time,
    )
    assert line == json.dumps({
        "type": "apply", "client": client, "seq": seq, "op": op,
        "status": status, "index": index, "time": time,
    }) + "\n"


def test_a_template_escapes_its_names_and_percent_signs():
    template = line_template('odd "kind" %', ("a%b", "c\\d"))
    assert template % (1, 2.5) == json.dumps(
        {"type": 'odd "kind" %', "a%b": 1, "c\\d": 2.5}
    ) + "\n"


class _CountingFile:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    def flush(self):
        pass

    def close(self):
        pass


def test_appended_lines_leave_in_one_write_at_the_end_of_the_turn(tmp_path):
    path = str(tmp_path / "journal.jsonl")

    async def main():
        writer = JsonlWriter(path, asyncio.get_running_loop())
        for number in range(3):
            writer.append(f'{{"n": {number}}}\n')
        with open(path) as fh:
            assert fh.read() == ""  # held for the rest of the turn
        await asyncio.sleep(0)
        with open(path) as fh:
            assert fh.read().splitlines() == ['{"n": 0}', '{"n": 1}', '{"n": 2}']
        assert writer.writes == 1
        await asyncio.sleep(0)
        assert writer.writes == 1  # nothing held, nothing written
        writer.close()

    asyncio.run(main())


def test_a_written_line_goes_behind_the_held_ones_in_the_same_write():
    async def main():
        writer = JsonlWriter(None, asyncio.get_running_loop())
        writer._fh = counting = _CountingFile()
        writer.append('{"n": 0}\n')
        writer.append('{"n": 1}\n')
        writer.write({"type": "view"})
        assert counting.writes == ['{"n": 0}\n{"n": 1}\n{"type": "view"}\n']
        writer.append('{"n": 2}\n')
        writer.flush()  # what a socket write does first
        writer.flush()
        assert counting.writes[1:] == ['{"n": 2}\n']
        assert writer.writes == 2
        await asyncio.sleep(0)  # the turn-end flushes find nothing held
        assert writer.writes == 2
        writer.append('{"n": 3}\n')
        writer.close()  # closing writes what is held
        assert counting.writes[2:] == ['{"n": 3}\n']

    asyncio.run(main())
