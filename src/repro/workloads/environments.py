"""Environment-driven workloads: scenarios written as specs, not modules.

:func:`environment_scenario` turns any :class:`~repro.env.spec.EnvironmentSpec`
(given directly, as a plain dict, or as a catalogue name) into a runnable
:class:`~repro.workloads.scenario.Scenario`.  The generic ``environment``
workload wraps it: that workload is the one path behind
``python -m repro run --env <name-or-json>``, and is usable from
:class:`~repro.harness.experiment.ExperimentSpec` grids.

On top of it, this module registers the scenario families that the
pre-environment codebase could not express without a new module:

* ``asymmetric-link`` — links to/from the post-``TS`` coordinator crawl
  while every other link is prompt (leader-based protocols feel the slow
  hub; leaderless ones should not care);
* ``gray-partition`` — a minority partition that heals gradually before
  ``TS`` instead of vanishing at an instant;
* ``churn`` — repeated post-``TS`` crash/restart waves over a minority
  while a majority stays up (the one family that deliberately steps outside
  the paper's no-failures-after-``TS`` assumption).
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Union

from repro.env.registry import (
    asymmetric_link_environment,
    churn_environment,
    gray_partition_environment,
    named_environment,
)
from repro.env.spec import EnvironmentSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig
from repro.workloads.registry import register_workload
from repro.workloads.scenario import Scenario

__all__ = [
    "asymmetric_link_scenario",
    "churn_scenario",
    "environment_scenario",
    "gray_partition_scenario",
    "resolve_environment",
]

EnvironmentLike = Union[EnvironmentSpec, Mapping[str, Any], str]


def resolve_environment(env: EnvironmentLike) -> EnvironmentSpec:
    """Coerce a spec, a plain dict, or a catalogue name into an EnvironmentSpec."""
    if isinstance(env, EnvironmentSpec):
        return env
    if isinstance(env, str):
        return named_environment(env)
    if isinstance(env, Mapping):
        return EnvironmentSpec.from_dict(env)
    raise ConfigurationError(
        f"cannot resolve environment from {type(env).__name__}; "
        "pass an EnvironmentSpec, an environment name, or a spec dict"
    )


def environment_scenario(
    env: EnvironmentLike,
    *,
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
    name: Optional[str] = None,
    initial_values: Optional[List[Any]] = None,
    expected_deciders: Optional[List[int]] = None,
    notes: Optional[str] = None,
    horizon_delta: float = 400.0,
) -> Scenario:
    """A runnable scenario from any environment spec.

    Args:
        env: The environment — an :class:`EnvironmentSpec`, a name from
            :data:`~repro.env.registry.ENVIRONMENTS`, or a spec dict.
        n: Number of processes.
        ts: Stabilization time; defaults to ``10δ``.
        max_time: Simulation horizon; defaults to ``ts + horizon_delta * δ``.
        name: Scenario name; defaults to ``<env-name>-n<n>``.
    """
    spec = resolve_environment(env)
    spec.validate()
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 10.0 * params.delta
    config = SimulationConfig(
        n=n,
        params=params,
        ts=ts,
        seed=seed,
        max_time=max_time if max_time is not None else ts + horizon_delta * params.delta,
    )
    return Scenario(
        name=name if name is not None else f"{spec.name or 'environment'}-n{n}",
        config=config,
        environment=spec,
        initial_values=initial_values,
        expected_deciders=expected_deciders,
        notes=notes if notes is not None else spec.notes,
    )


@register_workload(
    "environment",
    summary="generic: run any named or inline EnvironmentSpec",
    param_help={
        "n": "number of processes",
        "env": "environment name (see `repro list-environments`) or a spec dict",
        "ts": "stabilization time (defaults to 10 delta)",
    },
)
def environment_workload(
    n: int,
    env: EnvironmentLike,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
) -> Scenario:
    """Run any environment by name or inline spec (the ``--env`` workload)."""
    return environment_scenario(
        env, n=n, params=params, ts=ts, seed=seed, max_time=max_time
    )


@register_workload(
    "asymmetric-link",
    summary="slow links to/from the post-TS coordinator; every other link prompt",
    param_help={
        "n": "number of processes",
        "hub": "process whose links are slow (default 0, the lowest-id coordinator)",
        "direction": "'to', 'from', or 'both' hub-adjacent directions",
        "slow_factor": "pre-TS delays on slow links go up to slow_factor * delta",
    },
)
def asymmetric_link_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    hub: int = 0,
    direction: str = "both",
    slow_factor: float = 4.0,
    slow_post_ts: bool = True,
    max_time: Optional[float] = None,
) -> Scenario:
    """Per-link asymmetry around a hub process (the post-``TS`` coordinator)."""
    if not 0 <= hub < n:
        raise ConfigurationError(f"hub must be a pid in [0, {n}), got {hub}")
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 5.0 * params.delta
    environment = asymmetric_link_environment(
        hub=hub,
        direction=direction,
        slow_factor=slow_factor,
        slow_post_ts=slow_post_ts,
    )
    return environment_scenario(
        environment,
        n=n,
        params=params,
        ts=ts,
        seed=seed,
        max_time=max_time,
        name=f"asymmetric-link-n{n}-hub{hub}",
    )


@register_workload(
    "gray-partition",
    summary="a minority partition that heals gradually before TS",
    param_help={
        "n": "number of processes",
        "heal_start": "fraction of ts at which the partition starts healing",
        "end_drop": "cross-group drop probability remaining at TS",
        "with_crashes": "also crash (and recover) a random minority before TS",
    },
)
def gray_partition_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    heal_start: float = 0.4,
    end_drop: float = 0.0,
    with_crashes: bool = False,
    max_time: Optional[float] = None,
) -> Scenario:
    """A partial partition that degrades from total to leaky before ``TS``."""
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 10.0 * params.delta
    environment = gray_partition_environment(
        heal_start=heal_start,
        end_drop=end_drop,
        with_crashes=with_crashes and n >= 3,
    )
    return environment_scenario(
        environment, n=n, params=params, ts=ts, seed=seed, max_time=max_time,
        name=f"gray-partition-n{n}",
    )


@register_workload(
    "churn",
    summary="repeated post-TS crash/restart waves over a minority (majority stays up)",
    param_help={
        "n": "number of processes (at least 3)",
        "waves": "restart cycles per victim after TS",
        "up_time": "delta units a churning victim stays up per wave",
        "down_time": "delta units a churning victim stays down per wave",
        "num_victims": "how many processes churn (defaults to the largest minority)",
    },
)
def churn_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    waves: int = 3,
    up_time: float = 1.0,
    down_time: float = 2.0,
    first_offset: float = 2.0,
    num_victims: Optional[int] = None,
    max_time: Optional[float] = None,
) -> Scenario:
    """Post-``TS`` churn: a minority cycles through crash/restart waves."""
    if n < 3:
        raise ConfigurationError("churn_scenario needs n >= 3 (a majority must stay up)")
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 10.0 * params.delta
    environment = churn_environment(
        waves=waves,
        up_time=up_time,
        down_time=down_time,
        first_offset=first_offset,
        num_victims=num_victims,
    )
    churn_span = first_offset + waves * (up_time + down_time)
    horizon = max_time if max_time is not None else ts + (churn_span + 100.0) * params.delta
    return environment_scenario(
        environment, n=n, params=params, ts=ts, seed=seed, max_time=horizon,
        name=f"churn-n{n}-w{waves}",
    )
