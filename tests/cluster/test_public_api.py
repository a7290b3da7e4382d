"""The documented public API surface stays importable and coherent."""

import importlib
import pkgutil
import sys
import types

import pytest


def test_top_level_all_resolves():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("module_name", [
    "repro.sim", "repro.net", "repro.failure", "repro.vsc",
    "repro.core", "repro.core.fsr", "repro.protocols", "repro.rounds",
    "repro.workloads", "repro.metrics", "repro.checker", "repro.cluster",
    "repro.smr", "repro.analysis", "repro.cli",
    "repro.obs", "repro.live", "repro.serve", "repro.chaos",
])
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, (module_name, name)


def test_every_package_and_obs_module_imports_first():
    """No import cycle hides behind import order (or a lazy table).

    ``repro.obs`` is imported by the protocol core *and* shares helpers
    with the metrics side; that used to be a cycle papered over with
    lazy attribute resolution.  Each package, and each ``repro.obs``
    module, must import as the first ``repro`` module of an interpreter
    — emulated by clearing ``sys.modules`` and standing a bare
    namespace in for the root package, whose ``__init__`` would
    otherwise fix one import order for everybody.
    """
    import repro
    import repro.obs

    names = [
        info.name
        for info in pkgutil.iter_modules(repro.__path__, "repro.")
        if info.ispkg
    ] + [
        info.name for info in pkgutil.iter_modules(repro.obs.__path__, "repro.obs.")
    ]
    assert "repro.metrics" in names and "repro.obs.event" in names
    root_path = list(repro.__path__)

    def unload():
        loaded = {
            name: module for name, module in sys.modules.items()
            if name == "repro" or name.startswith("repro.")
        }
        for name in loaded:
            del sys.modules[name]
        return loaded

    saved = unload()
    try:
        for name in names:
            unload()
            root = types.ModuleType("repro")
            root.__path__ = root_path
            sys.modules["repro"] = root
            module = importlib.import_module(name)
            for public in getattr(module, "__all__", []):
                assert getattr(module, public, None) is not None, (name, public)
        unload()
        importlib.import_module("repro")  # and the real front door
    finally:
        # Put the originals back: the rest of the suite holds references
        # into them, and a second copy of every class would not compare.
        unload()
        sys.modules.update(saved)


def test_readme_quickstart_snippet_works():
    """The code block in README.md actually runs."""
    from repro import ClusterConfig, FSRConfig, build_cluster

    cluster = build_cluster(ClusterConfig(n=5, protocol="fsr",
                                          protocol_config=FSRConfig(t=1)))
    cluster.start()
    cluster.run(until=0.05)
    cluster.broadcast(3, payload=b"hello")
    cluster.broadcast(1, payload=b"world")
    cluster.run_until(lambda: cluster.all_correct_delivered(2))
    orders = {
        pid: [str(d.message_id) for d in log.deliveries]
        for pid, log in cluster.results().delivery_logs.items()
    }
    assert len(set(map(tuple, orders.values()))) == 1


def test_every_public_module_has_docstrings():
    """Public modules and classes carry documentation."""
    modules = [
        "repro.sim.engine", "repro.net.network", "repro.net.params",
        "repro.vsc.membership", "repro.core.fsr.process",
        "repro.core.fsr.recovery", "repro.core.batching",
        "repro.protocols.fixed_sequencer", "repro.rounds.engine",
        "repro.workloads.driver", "repro.metrics.collector",
        "repro.checker.order", "repro.cluster.harness", "repro.analysis",
        "repro.smr.machine",
    ]
    for module_name in modules:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for attr_name in dir(module):
            attr = getattr(module, attr_name)
            if (
                isinstance(attr, type)
                and attr.__module__ == module_name
                and not attr_name.startswith("_")
            ):
                assert attr.__doc__, f"{module_name}.{attr_name} lacks a docstring"
