"""The workload catalogue: one literal table of scenario factories.

:data:`WORKLOADS` maps each workload name to its scenario factory, a
one-line summary and a help line per parameter.  The CLI, the sweep helper,
the experiment grids and the examples all resolve workloads by name through
it, so a new workload is one table entry plus its factory.

A factory's parameter schema (names, defaults, which are required) is read
from its signature: :meth:`ScenarioRegistry.create` rejects unknown and
missing keyword arguments, and :meth:`ScenarioRegistry.describe` is what
``repro list-workloads --params`` prints.

The ``smr-*`` entries are aliases of single-decree factories sized for
command streams; :mod:`repro.workloads.smr` explains them.
"""

from __future__ import annotations

import inspect
from functools import cache, partial
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.workloads.chaos import lossy_chaos_scenario, partitioned_chaos_scenario
from repro.workloads.composite import kitchen_sink_scenario
from repro.workloads.coordinator_faults import coordinator_crash_scenario
from repro.workloads.environments import (
    asymmetric_link_scenario,
    churn_scenario,
    environment_workload,
    gray_partition_scenario,
)
from repro.workloads.obsolete import obsolete_ballot_scenario
from repro.workloads.restarts import restart_after_stability_scenario
from repro.workloads.scenario import Scenario
from repro.workloads.stable import smr_stable_scenario, stable_scenario

__all__ = [
    "ScenarioRegistry",
    "WORKLOADS",
    "default_workload_registry",
    "factory_parameters",
]

ScenarioFactory = Callable[..., Scenario]
# (factory, one-line summary, parameter name -> help line)
WorkloadEntry = Tuple[ScenarioFactory, str, Mapping[str, str]]

_REQUIRED = inspect.Parameter.empty


# One signature read per table factory: every task's scenario build checks
# its kwargs against the result, which is an immutable tuple.
@cache
def factory_parameters(factory: ScenarioFactory) -> Tuple[inspect.Parameter, ...]:
    """The keyword parameters ``factory`` accepts, read from its signature."""
    return tuple(
        parameter
        for parameter in inspect.signature(factory).parameters.values()
        if parameter.kind not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    )


class ScenarioRegistry(Dict[str, WorkloadEntry]):
    """Name → (factory, summary, parameter help): a plain mapping plus :meth:`create`."""

    def _entry(self, name: str) -> WorkloadEntry:
        entry = self.get(name)
        if entry is None:
            raise ConfigurationError(
                f"unknown workload {name!r}; available: {', '.join(sorted(self))}"
            )
        return entry

    def describe(self, name: str) -> str:
        """``name: summary`` and one line per parameter: default or "(required)", then help."""
        factory, summary, param_help = self._entry(name)
        lines = [f"{name}: {summary}" if summary else name]
        for parameter in factory_parameters(factory):
            if parameter.default is _REQUIRED:
                text = f"{parameter.name} (required)"
            else:
                text = f"{parameter.name}={parameter.default!r}"
            help_line = param_help.get(parameter.name)
            lines.append(f"  {text}  {help_line}" if help_line else f"  {text}")
        return "\n".join(lines)

    def create(self, name: str, **kwargs: Any) -> Scenario:
        """Build the scenario of workload ``name``, validating kwargs."""
        factory, _summary, _help = self._entry(name)
        parameters = factory_parameters(factory)
        accepted = {parameter.name for parameter in parameters}
        for key in kwargs:
            if key not in accepted:
                raise ConfigurationError(
                    f"workload {name!r} does not accept parameter {key!r}; "
                    f"accepted: {', '.join(sorted(accepted))}"
                )
        missing = [
            parameter.name
            for parameter in parameters
            if parameter.default is _REQUIRED and parameter.name not in kwargs
        ]
        if missing:
            raise ConfigurationError(
                f"workload {name!r} requires parameters: {', '.join(missing)}"
            )
        return factory(**kwargs)


WORKLOADS = ScenarioRegistry({
    "stable": (
        stable_scenario,
        "synchronous from t=0, no faults: the failure-free fast path (E7)",
        {
            "n": "number of processes",
            "max_time": "simulation horizon (defaults to 200 delta)",
        },
    ),
    "partitioned-chaos": (
        partitioned_chaos_scenario,
        "minority partitions plus crashes/restarts before TS (E1, E4, E6, E8)",
        {
            "n": "number of processes",
            "ts": "stabilization time (defaults to 10 delta)",
            "leak_probability": "chance a cross-partition message leaks with a long delay",
            "worst_case_post_delays": "post-TS deliveries take (almost) the full delta",
        },
    ),
    "lossy-chaos": (
        lossy_chaos_scenario,
        "independent random loss/delay/deferral/duplication before TS",
        {
            "n": "number of processes",
            "ts": "stabilization time (defaults to 10 delta)",
            "drop_probability": "chance a pre-TS message is dropped outright",
        },
    ),
    "obsolete-ballots": (
        obsolete_ballot_scenario,
        "obsolete high-ballot phase-1a messages from crashed processes surface after TS (E2)",
        {
            "n": "number of processes (at least 3)",
            "num_obsolete": "obsolete ballots released after TS (defaults to ceil(N/2) - 1)",
        },
    ),
    "coordinator-crash": (
        coordinator_crash_scenario,
        "the first num_faulty round coordinators crash before TS and stay down (E3)",
        {
            "n": "number of processes",
            "num_faulty": "how many leading coordinators crash (defaults to the model maximum)",
        },
    ),
    "restarts": (
        restart_after_stability_scenario,
        "a minority crashes before TS and restarts at TS + offset (E5)",
        {
            "n": "number of processes (at least 3)",
            "restart_offsets": "offsets after TS (in delta units) at which victims restart",
        },
    ),
    "kitchen-sink": (
        kitchen_sink_scenario,
        "every adversity the model allows at once: partitions, deferral, duplication, "
        "crashes, late restarts, worst-case post-TS delays",
        {
            "n": "number of processes (at least 3)",
            "late_restart_offset": "when (after TS, in delta units) the late victim restarts",
        },
    ),
    "environment": (
        environment_workload,
        "generic: run any inline EnvironmentSpec",
        {
            "n": "number of processes",
            "env": "an EnvironmentSpec or a spec dict (primitives: `repro list-environments`)",
            "ts": "stabilization time (defaults to 10 delta)",
        },
    ),
    "asymmetric-link": (
        asymmetric_link_scenario,
        "slow links to/from the post-TS coordinator; every other link prompt",
        {
            "n": "number of processes",
            "hub": "process whose links are slow (default 0, the lowest-id coordinator)",
            "direction": "'to', 'from', or 'both' hub-adjacent directions",
            "slow_factor": "pre-TS delays on slow links go up to slow_factor * delta",
        },
    ),
    "gray-partition": (
        gray_partition_scenario,
        "a minority partition that heals gradually before TS",
        {
            "n": "number of processes",
            "heal_start": "fraction of ts at which the partition starts healing",
            "end_drop": "cross-group drop probability remaining at TS",
            "with_crashes": "also crash (and recover) a random minority before TS",
        },
    ),
    "churn": (
        churn_scenario,
        "repeated post-TS crash/restart waves over a minority (majority stays up)",
        {
            "n": "number of processes (at least 3)",
            "waves": "restart cycles per victim after TS",
            "up_time": "delta units a churning victim stays up per wave",
            "down_time": "delta units a churning victim stays down per wave",
            "num_victims": "how many processes churn (defaults to the largest minority)",
        },
    ),
    "smr-stable": (
        smr_stable_scenario,
        "SMR: synchronous from t=0, no faults — the phase-1-pre-executed fast path (E9)",
        {
            "n": "number of replicas",
            "max_time": "simulation horizon (defaults to 400 delta, room for long command streams)",
        },
    ),
    "smr-chaos": (
        partitioned_chaos_scenario,
        "SMR: minority partitions and crashes before TS, commands replicated after (E9)",
        {
            "n": "number of replicas",
            "ts": "stabilization time (defaults to 10 delta)",
            "leak_probability": "chance a cross-partition message leaks with a long delay",
        },
    ),
    # Every victim restarts, so all replicas are expected to converge on the
    # full log by the horizon: this family exercises the multi-decree
    # catch-up path (decided entries piggybacked on promises).
    "smr-churn": (
        partial(churn_scenario, waves=2),
        "SMR: post-TS crash/restart waves over a minority while commands flow",
        {
            "n": "number of replicas (at least 3)",
            "waves": "restart cycles per victim after TS",
            "num_victims": "how many replicas churn (defaults to the largest minority)",
        },
    ),
    "smr-gray-partition": (
        gray_partition_scenario,
        "SMR: a minority partition healing gradually before TS under commands",
        {
            "n": "number of replicas",
            "heal_start": "fraction of ts at which the partition starts healing",
            "end_drop": "cross-group drop probability remaining at TS",
        },
    ),
    "smr-asymmetric-link": (
        asymmetric_link_scenario,
        "SMR: slow links around the serving leader; follower submissions feel the hub",
        {
            "n": "number of replicas",
            "hub": "replica whose links are slow (default 0)",
            "slow_factor": "pre-TS delays on slow links go up to slow_factor * delta",
        },
    ),
})


def default_workload_registry() -> ScenarioRegistry:
    """The workload table, :data:`WORKLOADS`; the benchmark harness resolves workloads here."""
    return WORKLOADS
