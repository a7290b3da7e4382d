from layers import codec_mix, null_ring_run


def test_null_ring_delivers_every_broadcast_at_every_process():
    elapsed, delivered, calls = null_ring_run(200)
    assert delivered == 200 and elapsed > 0
    # Each broadcast crosses the three-node ring as data, then as acks.
    assert calls >= 3 * 200


def test_codec_mix_is_the_bench_codec_mix():
    mix = codec_mix(64)
    assert len(mix) == 17
    assert type(mix[-1]).__name__ == "AckBatch"
