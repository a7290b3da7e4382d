"""The one JSONL writer and the one torn-tail-tolerant incremental reader.

Every journal in the program — node journals, span journals, merged
timelines — is written by ``JsonlWriter`` (or in its line format) and
read back through ``JsonlReader.poll``.  A SIGKILL can cut the file at
any byte, and the launcher polls journals that are still growing, so
the reader's contract is stated once, as a property: whatever prefix of
the bytes is on disk and however the polls fall, the reader yields
exactly a prefix of the entries, never raises, and picks up where it
stopped when more bytes arrive.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs.journal import JsonlReader, JsonlWriter

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_objects = st.dictionaries(
    st.text(max_size=6),
    st.one_of(
        json_scalars,
        st.lists(json_scalars, max_size=3),
        st.dictionaries(st.text(max_size=4), json_scalars, max_size=3),
    ),
    max_size=4,
)


def _written(tmp_path_factory, entries):
    """The bytes the one writer produces for ``entries``."""
    path = str(tmp_path_factory.mktemp("jsonl") / "written.jsonl")
    writer = JsonlWriter(path)
    for entry in entries:
        writer.write(entry)
    writer.close()
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(json_objects, max_size=6),
    cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=6),
)
def test_any_truncation_and_chunking_yields_a_prefix_and_resumes(
    tmp_path_factory, entries, cuts
):
    data = _written(tmp_path_factory, entries)
    assert data == b"".join(json.dumps(e).encode() + b"\n" for e in entries)

    # The file grows to each cut in turn (a poll after each), then to
    # its full length: every intermediate state is a truncation at an
    # arbitrary byte offset.
    offsets = sorted(min(cut, len(data)) for cut in cuts) + [len(data)]
    path = str(tmp_path_factory.mktemp("jsonl") / "growing.jsonl")
    reader = JsonlReader(path)
    assert reader.poll() == []  # not created yet: reads as empty
    seen = []
    written = 0
    for offset in offsets:
        with open(path, "ab") as fh:
            fh.write(data[written:offset])
        written = offset
        seen.extend(reader.poll())
        complete = data[:offset].count(b"\n")
        assert seen == entries[:complete]
    assert seen == entries
    assert reader.poll() == []  # nothing new, nothing repeated
    # Reading a whole file is one poll of a fresh reader.
    assert JsonlReader(path).poll() == entries


def test_a_terminated_line_that_is_not_a_json_object_ends_the_prefix(tmp_path):
    path = str(tmp_path / "corrupt.jsonl")
    with open(path, "w") as fh:
        fh.write('{"a": 1}\n[1, 2]\n{"b": 2}\n')
    reader = JsonlReader(path)
    assert reader.poll() == [{"a": 1}]
    assert reader.poll() == []  # nothing after corruption is trusted
    with open(path, "wb") as fh:
        fh.write(b'{"a": 1}\n\xff\xfe garbage\n{"b": 2}\n')
    assert JsonlReader(path).poll() == [{"a": 1}]


def test_writer_without_a_path_writes_nothing():
    writer = JsonlWriter(None)
    writer.write({"a": 1})
    writer.close()
