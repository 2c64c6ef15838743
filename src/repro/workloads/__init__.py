"""Workloads: scenario builders for the experiments.

A :class:`repro.workloads.scenario.Scenario` bundles everything one run
needs apart from the protocol: the simulation configuration, how to build
the network (synchrony model + adversary), the fault plan, the initial
values, an optional post-setup hook (used to inject in-flight pre-``TS``
messages), and which processes are expected to decide.
"""

from repro.workloads.chaos import lossy_chaos_scenario, partitioned_chaos_scenario
from repro.workloads.composite import kitchen_sink_scenario
from repro.workloads.coordinator_faults import coordinator_crash_scenario
from repro.workloads.environments import (
    asymmetric_link_scenario,
    churn_scenario,
    environment_scenario,
    gray_partition_scenario,
    resolve_environment,
)
from repro.workloads.obsolete import obsolete_ballot_scenario
from repro.workloads.registry import (
    ScenarioRegistry,
    WorkloadSpec,
    default_workload_registry,
    register_workload,
)
from repro.workloads.restarts import restart_after_stability_scenario
from repro.workloads.scenario import Scenario
from repro.workloads.smr import (
    SMR_WORKLOADS,
    is_smr_workload,
    smr_stable_scenario,
)
from repro.workloads.stable import stable_scenario

__all__ = [
    "SMR_WORKLOADS",
    "Scenario",
    "ScenarioRegistry",
    "WorkloadSpec",
    "asymmetric_link_scenario",
    "churn_scenario",
    "coordinator_crash_scenario",
    "default_workload_registry",
    "environment_scenario",
    "gray_partition_scenario",
    "register_workload",
    "is_smr_workload",
    "kitchen_sink_scenario",
    "lossy_chaos_scenario",
    "obsolete_ballot_scenario",
    "partitioned_chaos_scenario",
    "resolve_environment",
    "restart_after_stability_scenario",
    "smr_stable_scenario",
    "stable_scenario",
]
