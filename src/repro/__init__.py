"""repro — reproduction of "How Fast Can Eventual Synchrony Lead to Consensus?".

Dutta, Guerraoui, Lamport (DSN 2005) show that consensus can be reached
within ``O(δ)`` seconds of the (unknown) time at which an eventually
synchronous system stabilizes — not the ``O(Nδ)`` that leader-driven Paxos
or rotating-coordinator algorithms need — using a leaderless, session-based
variant of Paxos.  This package implements that algorithm, the baselines the
paper argues against, the weak-ordering-oracle variant it sketches, and a
deterministic discrete-event simulator of the paper's system model, plus the
workloads, metrics, and experiment harness used to regenerate the paper's
timing analysis as measured tables.

Quick start — one run.  Workloads and protocols are both resolved by name
through two literal tables, :data:`WORKLOADS` and :data:`PROTOCOLS`;
:func:`run_scenario` is the single-run primitive::

    from repro import WORKLOADS, run_scenario

    scenario = WORKLOADS.create("partitioned-chaos", n=5, seed=7)
    result = run_scenario(scenario, "modified-paxos")
    print(result.max_lag_after_ts())       # decision lag after TS

Quick start — an experiment grid.  :class:`ExperimentSpec` declares
protocols × workload parameters × seeds; ``jobs=N`` fans the runs out over
a process pool, and the returned :class:`ResultSet` supports filtering,
grouping, and summary statistics::

    from repro import ExperimentSpec, lag_delta, run_experiment

    spec = ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-paxos", "traditional-paxos"),
        seeds=(1, 2, 3),
        grid={"n": (5, 9, 15)},
    )
    results = run_experiment(spec, jobs=4)
    for (protocol, n), subset in results.group_by("protocol", "n").items():
        print(protocol, n, subset.max(lag_delta))

Quick start — durable results.  Pass ``store=`` to persist every run as a
schema-versioned :class:`RunRecord` under its content key, and
``resume=True`` to load any run already present instead of re-executing
it (see :mod:`repro.results`)::

    results = run_experiment(spec, store="runs.jsonl", resume=True)
    with open_store("runs.jsonl") as store:
        print(store.query(protocol="modified-paxos").summary(lag_delta))

Environments.  A run's environment (pre-``TS`` adversary, synchrony, crash
and restart schedule) is a declarative :class:`EnvironmentSpec`; the named
ones live in the :mod:`repro.env.registry` catalogue, and
:func:`named_environment` builds one::

    spec = named_environment("churn", waves=2)
    scenario = environment_scenario(spec, n=7, seed=3)

``python -m repro list-workloads``, ``python -m repro list-protocols`` and
``python -m repro list-environments`` print everything the protocol, workload
and environment catalogues know; ``python -m repro results ls --store
runs.jsonl`` inspects a store.
"""

from repro._version import __version__
from repro.consensus.registry import PROTOCOLS, protocol_builder
from repro.core.modified_paxos import ModifiedPaxosBuilder, ModifiedPaxosProcess
from repro.env.registry import named_environment
from repro.env.spec import (
    AdversarySpec,
    EnvironmentSpec,
    FaultSpec,
    PartitionDecl,
    SynchronySpec,
)
from repro.core.timing import decision_bound, restart_decision_bound
from repro.harness.executors import (
    Executor,
    ParallelExecutor,
    RunTask,
    SerialExecutor,
    SmrTask,
    make_executor,
)
from repro.harness.experiment import (
    ExperimentSpec,
    ResultRow,
    ResultSet,
    lag_delta,
    run_experiment,
    run_smr_tasks,
)
from repro.harness.runner import RunResult, run_scenario
from repro.params import TimingParams
from repro.results import (
    JsonlStore,
    MemoryStore,
    ResultStore,
    RunRecord,
    SmrRecord,
    SqliteStore,
    content_key_for_task,
    open_store,
)
from repro.smr.runner import run_smr
from repro.smr.workload import CommandSchedule, ScheduleSpec, uniform_schedule
from repro.sim.simulator import SimulationConfig, Simulator
from repro.workloads.chaos import lossy_chaos_scenario, partitioned_chaos_scenario
from repro.workloads.coordinator_faults import coordinator_crash_scenario
from repro.workloads.environments import (
    asymmetric_link_scenario,
    churn_scenario,
    environment_scenario,
    gray_partition_scenario,
)
from repro.workloads.obsolete import obsolete_ballot_scenario
from repro.workloads.registry import WORKLOADS, ScenarioRegistry
from repro.workloads.restarts import restart_after_stability_scenario
from repro.workloads.scenario import Scenario
from repro.workloads.stable import stable_scenario

__all__ = [
    "AdversarySpec",
    "CommandSchedule",
    "EnvironmentSpec",
    "Executor",
    "ExperimentSpec",
    "FaultSpec",
    "JsonlStore",
    "MemoryStore",
    "PROTOCOLS",
    "PartitionDecl",
    "SynchronySpec",
    "ModifiedPaxosBuilder",
    "ModifiedPaxosProcess",
    "ParallelExecutor",
    "ResultRow",
    "ResultSet",
    "ResultStore",
    "RunRecord",
    "RunResult",
    "RunTask",
    "SqliteStore",
    "Scenario",
    "ScenarioRegistry",
    "SerialExecutor",
    "ScheduleSpec",
    "SimulationConfig",
    "Simulator",
    "SmrRecord",
    "SmrTask",
    "TimingParams",
    "WORKLOADS",
    "__version__",
    "asymmetric_link_scenario",
    "churn_scenario",
    "content_key_for_task",
    "coordinator_crash_scenario",
    "decision_bound",
    "environment_scenario",
    "gray_partition_scenario",
    "lag_delta",
    "lossy_chaos_scenario",
    "make_executor",
    "named_environment",
    "obsolete_ballot_scenario",
    "open_store",
    "partitioned_chaos_scenario",
    "protocol_builder",
    "restart_after_stability_scenario",
    "restart_decision_bound",
    "run_experiment",
    "run_scenario",
    "run_smr",
    "run_smr_tasks",
    "stable_scenario",
    "uniform_schedule",
]
