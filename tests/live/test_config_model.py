"""The live config model: declared once, derived everywhere else.

* ``LiveNodeConfig`` serde is derived from its dataclass fields, so
  every field must survive ``to_dict`` -> JSON -> ``from_dict`` (the
  path a config takes from the launcher to a node process), and a key
  that names no field must be rejected, not dropped.
* ``LiveCluster`` projects the spec onto the node config by shared
  field name.  Every ``LiveClusterSpec`` field therefore either reaches
  ``LiveNodeConfig`` or is named in the launcher-only set — a field
  added to one side cannot silently stop at the launcher.
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
from repro.live.node import LiveNodeConfig
from repro.live.runner import (
    LAUNCHER_ONLY_FIELDS,
    LiveCluster,
    LiveClusterSpec,
    forwarded_fields,
    merge_node_records,
)

_PORTS = st.integers(min_value=1, max_value=65535)
_ADDR = st.tuples(st.sampled_from(["127.0.0.1", "::1", "node.example"]), _PORTS)
_OPT_POSITIVE = st.none() | st.integers(min_value=1, max_value=1 << 20)
_SECONDS = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


def _names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@st.composite
def node_kwargs(draw):
    """Keyword arguments of a valid config, every field drawn."""
    members = draw(
        st.lists(st.integers(0, 9), min_size=2, max_size=5, unique=True)
    )
    address_map = st.fixed_dictionaries({pid: _ADDR for pid in members})
    shards = draw(st.integers(1, 3))
    serve_addr = draw(st.none() | _ADDR)
    span_path = draw(st.none() | st.just("/tmp/spans.jsonl"))
    return dict(
        node_id=draw(st.sampled_from(members)),
        members=members,
        addresses=draw(address_map),
        t=draw(st.integers(0, 3)),
        shards=shards,
        ring_addresses=(
            draw(st.lists(address_map, min_size=shards, max_size=shards))
            if shards > 1
            else []
        ),
        senders=(
            []
            if serve_addr is not None
            else draw(st.lists(st.sampled_from(members), unique=True))
        ),
        message_bytes=draw(st.integers(1, 1 << 20)),
        duration_s=draw(_SECONDS),
        window=draw(st.integers(1, 64)),
        settle_s=draw(_SECONDS),
        quiet_s=draw(_SECONDS),
        max_run_s=draw(_SECONDS),
        connect_timeout_s=draw(_SECONDS),
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
        serve_addr=serve_addr,
        lease_s=draw(_SECONDS),
        journal_path=draw(st.none() | st.just("/tmp/journal.jsonl")),
        span_path=span_path,
        trace_requests=span_path is not None and draw(st.booleans()),
        metrics_addr=draw(st.none() | _ADDR),
        profile_path=draw(st.none() | st.just("/tmp/node.collapsed.txt")),
        log_level=draw(st.none() | st.sampled_from(["INFO", "DEBUG"])),
        batch_bytes=draw(_OPT_POSITIVE),
        batch_messages=draw(_OPT_POSITIVE),
    )


@settings(max_examples=60, deadline=None)
@given(node_kwargs())
def test_node_config_survives_the_json_round_trip(kwargs):
    # A field added to LiveNodeConfig must join the strategy.
    assert set(kwargs) == _names(LiveNodeConfig)
    config = LiveNodeConfig(**kwargs)
    wire = json.loads(json.dumps(config.to_dict()))
    assert LiveNodeConfig.from_dict(wire) == config
    # ... and the in-process form (no JSON hop) restores just the same.
    assert LiveNodeConfig.from_dict(config.to_dict()) == config


def test_absent_keys_take_the_declared_defaults():
    minimal = {
        "node_id": 0,
        "members": [0, 1],
        "addresses": {"0": ["127.0.0.1", 1], "1": ["127.0.0.1", 2]},
    }
    assert LiveNodeConfig.from_dict(minimal) == LiveNodeConfig(
        node_id=0,
        members=[0, 1],
        addresses={0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)},
    )


def test_unknown_key_is_rejected():
    config = LiveNodeConfig(
        node_id=0,
        members=[0, 1],
        addresses={0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)},
    )
    wire = dict(config.to_dict(), batch_delay_s=0.001)
    with pytest.raises(ConfigurationError, match="batch_delay_s"):
        LiveNodeConfig.from_dict(wire)


# -- spec -> node projection -----------------------------------------------
#: Node fields the launcher computes per node (addresses it allocated,
#: paths in its workdir).  ``senders`` is per-node too in the sense that
#: the spec's *count* becomes a list of ids.
PER_NODE_FIELDS = {
    "node_id", "members", "addresses", "ring_addresses", "serve_addr",
    "journal_path", "span_path", "metrics_addr", "profile_path",
}


def test_every_spec_field_reaches_the_node_or_is_launcher_only():
    spec_fields, node_fields = _names(LiveClusterSpec), _names(LiveNodeConfig)
    assert LAUNCHER_ONLY_FIELDS <= spec_fields
    assert not LAUNCHER_ONLY_FIELDS & node_fields
    # Every other spec field is a node field of the same name ...
    assert spec_fields - LAUNCHER_ONLY_FIELDS <= node_fields
    # ... and nothing on the node is left to its default by accident.
    assert node_fields == (spec_fields - LAUNCHER_ONLY_FIELDS) | PER_NODE_FIELDS


def test_forwarded_fields_carry_the_spec_values():
    spec = LiveClusterSpec(
        processes=3, senders=2, t=2, window=7, lease_s=0.3, run_seed=11,
        batch_bytes=4096, log_level="INFO",
    )
    shared = forwarded_fields(spec)
    assert set(shared) == _names(LiveClusterSpec) - LAUNCHER_ONLY_FIELDS
    # ``senders`` is a count on the spec and the ids on the node.
    assert shared.pop("senders") == [0, 1]
    for name, value in shared.items():
        assert value == getattr(spec, name), name
    config = LiveNodeConfig(
        node_id=1,
        members=[0, 1, 2],
        addresses={pid: ("127.0.0.1", 1 + pid) for pid in range(3)},
        senders=[0, 1],
        **shared,
    )
    assert (config.t, config.window, config.lease_s) == (2, 7, 0.3)
    assert (config.run_seed, config.batch_bytes, config.log_level) == (
        11, 4096, "INFO",
    )


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
