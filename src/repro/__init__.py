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
a process pool, and the returned
:class:`~repro.harness.experiment.ResultSet` supports filtering, grouping,
and summary statistics::

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
schema-versioned :class:`~repro.results.record.RunRecord` under its content
key, and ``resume=True`` to load any run already present instead of
re-executing it (see :mod:`repro.results`)::

    results = run_experiment(spec, store="runs.jsonl", resume=True)
    with open_store("runs.jsonl") as store:
        print(store.query(protocol="modified-paxos").mean(lag_delta))

Environments.  A run's environment (pre-``TS`` adversary and crash
and restart schedule) is a declarative :class:`EnvironmentSpec`, composed
from the adversary and fault kinds catalogued in :mod:`repro.env.registry`;
the named environments are workloads, and every scenario carries its spec::

    spec = EnvironmentSpec(
        adversary=AdversarySpec("drop-all"),
        faults=FaultSpec("churn-waves", {"waves": 2}),
    )
    scenario = environment_scenario(spec, n=7, seed=3)
    churn = WORKLOADS.create("churn", n=7).environment   # a named one

``python -m repro list-workloads``, ``python -m repro list-protocols`` and
``python -m repro list-environments`` print the workload and protocol
catalogues and the environment primitives; ``python -m repro results ls
--store runs.jsonl`` inspects a store.

``repro`` exports the names above plus ``TimingParams``,
``decision_bound`` and ``__version__`` (see ``__all__``); import every other
name from the module that defines it.
"""

from repro._version import __version__
from repro.consensus.registry import PROTOCOLS
from repro.core.timing import decision_bound
from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.harness.experiment import ExperimentSpec, lag_delta, run_experiment
from repro.harness.runner import run_scenario
from repro.params import TimingParams
from repro.results.store import open_store
from repro.workloads.environments import environment_scenario
from repro.workloads.registry import WORKLOADS

__all__ = [
    "AdversarySpec",
    "EnvironmentSpec",
    "ExperimentSpec",
    "FaultSpec",
    "PROTOCOLS",
    "TimingParams",
    "WORKLOADS",
    "__version__",
    "decision_bound",
    "environment_scenario",
    "lag_delta",
    "open_store",
    "run_experiment",
    "run_scenario",
]
