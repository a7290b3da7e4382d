import json
import os
import re

from conftest import ROOT
from metrics import END_TO_END, PER_LAYER, SELF_TIME
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_manifest_has_exactly_the_contract_keys():
    assert sorted(manifest()) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]


def test_manifest_and_registry_say_the_same():
    doc = manifest()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == PER_LAYER
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_names_units_and_count_limits():
    doc = manifest()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert sorted(metric) == ["better", "bound", "name", "unit"]
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_command_and_paths_stay_inside_the_benchmark():
    doc = manifest()
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert doc["command"][:2] == ["python3", "bench/run.py"]
    for word in doc["command"]:
        assert len(word) <= 200 and not word.startswith("/") and ".." not in word
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * 30 <= 3420, "30 s a run is the budget the README states"


def test_every_traced_layer_has_a_self_time_metric():
    layer_names = {name for name, _unit, _better in PER_LAYER}
    assert set(SELF_TIME.values()) <= layer_names
