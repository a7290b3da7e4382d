"""The live config model: one spec per cluster, one placement per node.

* ``LiveNodeConfig`` is the cluster's ``LiveClusterSpec`` plus what the
  launcher works out for one node; its serde is derived from the
  dataclass fields, so every value must survive ``to_dict`` -> JSON ->
  ``from_dict`` (the path a config takes from the launcher to a node
  process), and a key that names no field must be rejected, not dropped.
* The node config restates no spec field, so there is nothing to keep
  in step, and every check on the spec runs when it is constructed.
* ``bench/`` drives the program through a fixed set of names and
  keyword arguments; they are pinned here so a launcher refactor fails
  in this file rather than at the benchmark driver.
"""

import dataclasses
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.live.config import LiveNodeConfig
from repro.live.runner import LiveCluster, LiveClusterSpec, merge_node_records

_PORTS = st.integers(min_value=1, max_value=65535)
_ADDR = st.tuples(st.sampled_from(["127.0.0.1", "::1", "node.example"]), _PORTS)
_OPT_POSITIVE = st.none() | st.integers(min_value=1, max_value=1 << 20)
_SECONDS = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


def _names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@st.composite
def spec_kwargs(draw):
    """Keyword arguments of a valid spec, every field drawn."""
    processes = draw(st.integers(2, 6))
    serve = draw(st.booleans())
    spans = draw(st.booleans())
    return dict(
        processes=processes,
        senders=0 if serve else draw(st.integers(1, processes)),
        t=draw(st.integers(0, 3)),
        shards=draw(st.integers(1, 3)),
        message_bytes=draw(st.integers(1, 1 << 20)),
        duration_s=draw(_SECONDS),
        window=draw(st.integers(1, 64)),
        host=draw(st.sampled_from(["127.0.0.1", "::1"])),
        max_run_s=draw(_SECONDS),
        connect_timeout_s=draw(_SECONDS),
        sim_compare=draw(st.booleans()),
        view_changes=draw(st.booleans()),
        heartbeat_interval_s=draw(_SECONDS),
        heartbeat_timeout_s=draw(_SECONDS),
        detector_mode=draw(st.sampled_from(["heartbeat", "adaptive"])),
        netem_events=draw(st.lists(
            st.fixed_dictionaries({
                "kind": st.just("jitter_burst"),
                "time": _SECONDS,
                "link": st.none() | st.lists(st.integers(0, 9), min_size=2, max_size=2),
            }),
            max_size=2,
        )),
        netem_scenario=draw(st.sampled_from(["", "hostile_network"])),
        netem_seed=draw(st.integers(0, 1 << 30)),
        run_seed=draw(st.integers(0, 1 << 30)),
        require_quorum=draw(st.booleans()),
        messages_per_sender=draw(_OPT_POSITIVE),
        spans=spans,
        log_level=draw(st.none() | st.sampled_from(["INFO", "DEBUG"])),
        batch_bytes=draw(_OPT_POSITIVE),
        batch_messages=draw(_OPT_POSITIVE),
        batch_delay_s=draw(st.none() | _SECONDS),
        serve=serve,
        lease_s=draw(_SECONDS),
        trace_requests=spans and draw(st.booleans()),
        metrics=draw(st.booleans()),
        metrics_base_port=draw(st.integers(0, 60000)),
        profile_dir=draw(st.none() | st.just("/tmp/profiles")),
    )


@st.composite
def placements(draw):
    """A valid spec and one node's placement in it, every field drawn."""
    spec = LiveClusterSpec(**draw(spec_kwargs()))
    members = range(spec.processes)
    address_map = st.fixed_dictionaries({pid: _ADDR for pid in members})
    return spec, dict(
        node_id=draw(st.sampled_from(members)),
        ring_addresses=draw(st.lists(
            address_map, min_size=spec.shards, max_size=spec.shards
        )),
        serve_addr=draw(_ADDR) if spec.serve else None,
        metrics_addr=draw(st.none() | _ADDR),
        journal_path=draw(st.none() | st.just("/tmp/journal.jsonl")),
        span_path="/tmp/spans.jsonl" if spec.spans else None,
        profile_path=draw(st.none() | st.just("/tmp/node.collapsed.txt")),
    )


@settings(max_examples=60, deadline=None)
@given(placements())
def test_node_config_survives_the_json_round_trip(spec_and_placement):
    spec, placement = spec_and_placement
    # A field added to either class must join the strategies.
    assert set(dataclasses.asdict(spec)) == _names(LiveClusterSpec)
    assert set(placement) | {"spec"} == _names(LiveNodeConfig)
    config = LiveNodeConfig(spec=spec, **placement)
    wire = json.loads(json.dumps(config.to_dict()))
    assert LiveNodeConfig.from_dict(wire) == config
    # ... and the in-process form (no JSON hop) restores just the same.
    assert LiveNodeConfig.from_dict(config.to_dict()) == config


_TWO = [{"0": ["127.0.0.1", 1], "1": ["127.0.0.1", 2]}]


def test_absent_keys_take_the_declared_defaults():
    minimal = {"spec": {"processes": 2}, "node_id": 0, "ring_addresses": _TWO}
    assert LiveNodeConfig.from_dict(minimal) == LiveNodeConfig(
        spec=LiveClusterSpec(processes=2),
        node_id=0,
        ring_addresses=[{0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}],
    )


def test_unknown_key_is_rejected():
    wire = {"spec": {"processes": 2}, "node_id": 0, "ring_addresses": _TWO}
    # A placement key the spec now says (the members) ...
    with pytest.raises(ConfigurationError, match="members"):
        LiveNodeConfig.from_dict(dict(wire, members=[0, 1]))
    # ... and a spec option that is gone.
    with pytest.raises(ConfigurationError, match="settle_s"):
        LiveNodeConfig.from_dict(
            dict(wire, spec={"processes": 2, "settle_s": 0.5})
        )


def test_the_node_config_is_the_spec_plus_its_placement():
    node_fields = _names(LiveNodeConfig) - {"spec"}
    assert not node_fields & _names(LiveClusterSpec)
    assert len(_names(LiveNodeConfig)) <= 8


@pytest.mark.parametrize(
    "bad", [{"detector_mode": "bogus"}, {"lease_s": -1}, {"lease_s": 0}]
)
def test_the_spec_checks_what_a_node_would_fail_on(bad):
    with pytest.raises(ConfigurationError):
        LiveClusterSpec(processes=3, **bad)


# -- the surface bench/ drives ---------------------------------------------
def _accepts(func, *args, **kwargs):
    inspect.signature(func).bind(*args, **kwargs)


def test_bench_surface_is_intact():
    """Exactly the names and call shapes ``bench/workloads.py`` uses."""
    from repro.checker.order import check_all  # noqa: F401
    from repro.live.node import StaticDetector  # noqa: F401  (bench/layers.py)
    from repro.obs.journal import merge_span_journals, rebase_request
    from repro.obs.reqtrace import request_breakdown, request_sort_key  # noqa: F401
    from repro.serve.runner import ServeSpec, client_outage, verify_serve_run

    # ring_spec(): flat keyword construction, batch_delay_s accepted.
    spec = LiveClusterSpec(
        processes=3, senders=3, t=1, message_bytes=64, window=16,
        duration_s=1.0, max_run_s=61.0, batch_bytes=60_000,
        batch_messages=64, batch_delay_s=0.001, sim_compare=False, run_seed=1,
    )
    assert spec.connect_timeout_s > 0 and spec.max_run_s == 61.0
    # serve_spec() and _client_outage().
    live = ServeSpec(processes=3, seed=1, trace_requests=True).live_spec()
    assert isinstance(live, LiveClusterSpec) and live.serve and live.spans
    assert ServeSpec().heartbeat_timeout_s > 0 and ServeSpec().retry_timeout_s > 0

    cluster = object()  # stands in for ``self``
    _accepts(LiveCluster, spec, "workdir", journals=True)
    _accepts(LiveCluster.kill, cluster, 0)
    _accepts(LiveCluster.terminate, cluster)
    _accepts(LiveCluster.terminate, cluster, skip={0})
    _accepts(LiveCluster.wait, cluster, 15.0, skip={0}, fail_fast=False)
    _accepts(LiveCluster.wait, cluster, 70.0)
    _accepts(LiveCluster.raise_on_failures, cluster)
    _accepts(LiveCluster.raise_on_failures, cluster, skip={0})
    _accepts(LiveCluster.collect, cluster)
    _accepts(LiveCluster.collect, cluster, skip={0})
    _accepts(LiveCluster.shutdown, cluster)
    # (The attributes it reads off a live cluster are pinned where one
    # exists: tests/live/test_cluster_session.py.)

    _accepts(merge_node_records, spec, {})
    _accepts(verify_serve_run, object(), {}, [1, 2], 0)
    _accepts(client_outage, [1.0], 0.5, window_s=4.0)
    _accepts(merge_span_journals, {}, t0=0.0)
    _accepts(rebase_request, object(), 0.0)
