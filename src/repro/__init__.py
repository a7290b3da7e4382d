"""repro — reproduction of *High Throughput Total Order Broadcast for
Cluster Environments* (Guerraoui, Levy, Pochon, Quéma; DSN 2006).

The package implements the paper's FSR protocol, the cluster substrate
it needs (a discrete-event switched-LAN simulator, perfect failure
detection, virtual synchrony), the five baseline protocol classes the
paper surveys, the paper's round-based analysis model, and a benchmark
harness regenerating every table and figure of the evaluation.

Quickstart::

    from repro import ClusterConfig, FSRConfig, build_cluster
    from repro.workloads import KToNPattern, run_workload
    from repro.metrics import collect_metrics

    cluster = build_cluster(ClusterConfig(n=5, protocol="fsr",
                                          protocol_config=FSRConfig(t=1)))
    outcome = run_workload(cluster, KToNPattern.n_to_n(5, 50))
    print(collect_metrics(outcome).aggregate_throughput_mbps)

See README.md for the architecture tour and DESIGN.md for the
paper-to-module map.
"""

from repro._exports import lazy_getattr

#: Public name -> the module that defines it.  Names resolve on first
#: use (PEP 562), so ``import repro`` costs nothing and a live node
#: process, which imports only ``repro.live.node``, never loads the
#: simulator, the chaos campaign or the figure stack.
_EXPORTS = {
    "CampaignConfig": "repro.chaos",
    "CampaignReport": "repro.chaos",
    "FaultSchedule": "repro.chaos",
    "run_campaign": "repro.chaos",
    "Cluster": "repro.cluster",
    "ClusterConfig": "repro.cluster",
    "ExperimentResult": "repro.cluster",
    "build_cluster": "repro.cluster",
    "BroadcastListener": "repro.core.api",
    "TotalOrderBroadcast": "repro.core.api",
    "BatchingBroadcast": "repro.core.batching",
    "BatchingConfig": "repro.core.batching",
    "FSRConfig": "repro.core.fsr",
    "FSRProcess": "repro.core.fsr",
    "Ring": "repro.core.fsr",
    "Role": "repro.core.fsr",
    "FramingModel": "repro.net",
    "NetworkParams": "repro.net",
    "PROTOCOLS": "repro.protocols",
    "Delivery": "repro.types",
    "MessageId": "repro.types",
    "View": "repro.types",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


__getattr__ = lazy_getattr(__name__, _EXPORTS)
