"""The public API: one import path per name, and the README code that uses it.

Subpackage ``__init__`` modules hold only their docstring, so every name is
imported from the module that defines it.  The top-level ``repro`` package
re-exports only the quick-start names, and the README's Python blocks run
as written against them.
"""

import ast
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.harness.executors import RunTask

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

QUICK_START = {
    "__version__",
    "WORKLOADS",
    "PROTOCOLS",
    "TimingParams",
    "run_scenario",
    "decision_bound",
    "ExperimentSpec",
    "lag_delta",
    "run_experiment",
    "AdversarySpec",
    "EnvironmentSpec",
    "FaultSpec",
    "environment_scenario",
    "open_store",
}

SUBPACKAGE_INITS = sorted(path for path in PACKAGE.rglob("__init__.py") if path.parent != PACKAGE)

# The README's ```python blocks, minus the FooRecord sketch (it names an
# outcome type that does not exist and is not meant to run).
README_BLOCKS = [
    block
    for block in re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    if "class FooRecord" not in block
]
README_BLOCK_IDS = ["quick-start", "environment-spec", "experiment-grid", "smr-tasks"]


def test_every_subpackage_init_is_collected():
    assert len(SUBPACKAGE_INITS) == 16


@pytest.mark.parametrize("init", SUBPACKAGE_INITS, ids=lambda path: str(path.parent.relative_to(PACKAGE)))
def test_subpackage_init_is_only_a_docstring(init):
    body = ast.parse(init.read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_top_level_exports_exactly_the_quick_start():
    imported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == set(repro.__all__) == QUICK_START


@pytest.mark.parametrize("name", sorted(repro.PROTOCOLS))
def test_every_protocol_builder_constructs_with_no_arguments(name):
    builder_class = repro.PROTOCOLS[name][0]
    assert not inspect.signature(builder_class).parameters
    assert builder_class().name == name


def test_one_configuration_per_run():
    """A run task is its protocol, its workload and its tags: nothing else is a setting."""
    assert {field.name for field in dataclasses.fields(RunTask)} == {
        "protocol", "workload", "workload_kwargs", "tags",
    }
    assert {field.name for field in dataclasses.fields(repro.ExperimentSpec)} == {
        "workload", "protocols", "seeds", "base", "grid", "bind", "tags",
    }
    assert list(inspect.signature(repro.run_scenario).parameters) == ["scenario", "protocol", "enforce"]


def test_the_event_queue_has_one_way_to_schedule_and_cancel():
    from repro.sim.events import EventQueue

    public = {name for name in vars(EventQueue) if not name.startswith("_")}
    assert public == {"push", "cancel"}
    assert list(inspect.signature(EventQueue.push).parameters) == ["self", "time", "action", "args"]


def test_timers_are_set_through_the_context_and_never_cancelled_by_name():
    from repro.sim.process import ProcessContext

    assert hasattr(ProcessContext, "set_timer")
    assert not hasattr(ProcessContext, "cancel_timer")
    assert not hasattr(ProcessContext, "timer_pending")
    assert not (PACKAGE / "sim" / "timers.py").exists()


def test_readme_has_the_four_runnable_blocks():
    assert len(README_BLOCKS) == len(README_BLOCK_IDS)


@pytest.mark.parametrize("block", README_BLOCKS, ids=README_BLOCK_IDS)
def test_readme_block_runs(block, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout
