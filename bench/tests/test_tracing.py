import time
from types import SimpleNamespace

from tracing import Tracer


def burn(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_is_duration_minus_child_spans():
    tracer = Tracer(sample_every=1)
    inner = tracer.wrap("inner", lambda: burn(0.02))

    def outer_fn(message):
        burn(0.01)
        inner()
        inner()

    outer = tracer.wrap(
        "outer", outer_fn,
        ident_of=lambda args, _result: ("m", 0, args[0].local_seq),
    )
    outer(SimpleNamespace(local_seq=64))
    totals = tracer.snapshot()["totals"]
    assert totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1
    assert 0.035e9 < totals["inner"]["self_ns"] < 0.06e9
    # The parent is charged only for what its children do not cover.
    assert 0.008e9 < totals["outer"]["self_ns"] < 0.02e9


def test_only_sampled_ids_keep_full_spans_and_children_inherit_them():
    tracer = Tracer(sample_every=64)
    child = tracer.wrap("child", lambda: None)

    def parent_fn(message):
        child()

    parent = tracer.wrap(
        "parent", parent_fn,
        ident_of=lambda args, _r: ("m", 0, args[0].local_seq),
    )
    for seq in range(1, 129):
        parent(SimpleNamespace(local_seq=seq))
    snap = tracer.snapshot()
    assert snap["totals"]["parent"]["calls"] == 128
    spans = snap["spans"]
    assert sorted(s["id"][2] for s in spans if s["layer"] == "parent") == [64, 128]
    children = [s for s in spans if s["layer"] == "child"]
    assert len(children) == 2
    for span in children:
        owner = spans[span["parent"]]
        assert owner["layer"] == "parent" and owner["id"] == span["id"]
        assert owner["start_ns"] <= span["start_ns"] <= span["end_ns"] <= owner["end_ns"]


def test_late_ids_are_sampled_from_the_result():
    tracer = Tracer(sample_every=64)
    decode = tracer.wrap(
        "decode", lambda seq: SimpleNamespace(local_seq=seq),
        ident_of=lambda _args, result: ("m", 1, result.local_seq), late=True,
    )
    for seq in range(1, 65):
        decode(seq)
    spans = tracer.snapshot()["spans"]
    assert [s["id"] for s in spans] == [["m", 1, 64]]


def test_exceptions_pass_through_and_still_close_the_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert tracer.totals["boom"][0] == 1 and not tracer._stack
