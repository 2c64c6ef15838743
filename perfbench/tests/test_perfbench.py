"""Tests of the benchmark itself: its declaration, metrics, layers and gate.

Workloads run on shrunken plans here (a few small runs each), so the whole
file takes seconds; the real plans run only under ``perfbench/run.py``.
"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import gate, run, suite  # noqa: E402
from perfbench.tracing import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def small_plan(name):
    """A few quick runs with the shape of the workload's real plan."""
    workload = WORKLOADS[name]
    plan = workload.plan(1)
    if name == "e1-chaos-scaling":
        return plan[:2]
    if name == "smr-command-stream":
        return [dataclasses.replace(task, schedule=dataclasses.replace(task.schedule,
                                                                       num_commands=4))
                for task in plan[:3]]
    return [dataclasses.replace(spec, seeds=spec.seeds[:1], grid={"n": (5,)}) for spec in plan]


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def test_benchmark_json_follows_the_declared_shape():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [metric["name"] for metric in metrics]
    assert len(all_names) == len(set(all_names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_reports_every_end_to_end_metric(name, scratch):
    workload = WORKLOADS[name]
    passes = [workload.run_pass(small_plan(name), scratch) for _ in range(2)]
    metrics = run.end_to_end(passes, setup=[0.1])
    assert set(metrics) == set(run.declared_metrics("end_to_end"))
    assert all(math.isfinite(value) and value > 0 for value in metrics.values())
    attempted, failed, errors = run.tally(passes, golden=None)
    assert (failed, errors) == (0, [])
    assert attempted == sum(len(p.digests) + len(p.resume_digests) for p in passes)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_traced_pass_yields_every_layer(name, scratch):
    workload = WORKLOADS[name]
    spans_path = os.path.join(scratch, "spans.json")
    _, metrics = run.traced(workload, small_plan(name), scratch, 0.0, spans_path)
    assert set(metrics) == set(run.declared_metrics("per_layer"))
    running = set(LAYERS) - ({"results"} if name != "campaign-resume" else set())
    for layer in running:
        assert metrics[f"{layer}.share"] > 0, layer
    if name != "campaign-resume":
        assert metrics["results.share"] == 0 and metrics["results.bytes"] == 0
    assert metrics["trace.overhead"] > 0
    with open(spans_path, "r", encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    assert {span["name"].split(".")[0] for span in spans} >= running - {"net", "protocol",
                                                                        "storage"}


def test_tracing_restores_every_patched_call():
    from perfbench.tracing import Tracer, install_layers
    from repro.harness import runner
    from repro.sim.simulator import Simulator

    before = (Simulator.run, runner.check_safety)
    tracer = Tracer()
    install_layers(tracer)
    assert Simulator.run is not before[0]
    tracer.uninstall()
    assert (Simulator.run, runner.check_safety) == before


def test_golden_digests_cover_the_default_and_held_out_seeds():
    golden = gate.load_golden()
    assert golden["default_seed"] != golden["held_out_seed"]
    for name, workload in WORKLOADS.items():
        for seed in (golden["default_seed"], golden["held_out_seed"]):
            digests = gate.golden_digests(name, seed)
            assert digests is not None and len(digests) == workload.runs(workload.plan(seed))


def test_the_gate_counts_changed_and_failed_runs(scratch):
    workload = WORKLOADS["e1-chaos-scaling"]
    result = workload.run_pass(small_plan("e1-chaos-scaling"), scratch)
    assert run.tally([result], golden=list(result.digests))[1] == 0
    assert run.tally([result], golden=["0" * 16, result.digests[1]])[1] == 1
    broken = dataclasses.replace(result, digests=[None, result.digests[1]])
    assert run.tally([result, broken], golden=None)[1] == 1
    resumed = dataclasses.replace(result, resume_digests=[result.digests[0], "0" * 16])
    assert run.tally([resumed], golden=None)[1] == 1


def test_digests_ignore_wall_clock_telemetry_only():
    from repro.harness.executors import execute_task

    outcome = execute_task(WORKLOADS["e1-chaos-scaling"].plan(1)[0])
    digest = gate.outcome_digest(outcome)
    outcome.extra["wall_s"] = 1.25
    assert gate.outcome_digest(outcome) == digest
    outcome.extra["events"] += 1
    assert gate.outcome_digest(outcome) != digest


def result_set(value, metrics=None):
    names = [m["name"] for m in load_spec()["end_to_end"]]
    metrics = metrics if metrics is not None else names
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": value, "unit": "x"} for name in metrics}}


def test_comparison_is_strict():
    workloads = list(WORKLOADS)
    base = {name: [result_set(100.0)] for name in workloads}
    assert suite.compare(base, base) == []
    assert suite.compare(base, {name: base[name] for name in workloads[1:]})
    names = [m["name"] for m in load_spec()["end_to_end"]]
    partial = {**base, workloads[0]: [result_set(100.0, names[1:])]}
    assert suite.compare(base, partial)
    slower = {**base, workloads[0]: [result_set(200.0)]}
    assert suite.compare(base, slower)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e1-chaos-scaling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "correct" not in done.stdout
