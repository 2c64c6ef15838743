"""Environment-driven workloads: scenarios written as specs, not modules.

:func:`environment_scenario` turns any :class:`~repro.env.spec.EnvironmentSpec`
(given directly or as a plain dict) into a runnable
:class:`~repro.workloads.scenario.Scenario`; every workload whose scenario
needs no more than a spec and a run configuration builds through it.  The
generic ``environment`` workload wraps it: that workload is the one path
behind ``python -m repro run --env JSON``, and is usable from
:class:`~repro.harness.experiment.ExperimentSpec` grids.

On top of it, this module defines the scenario families that the
pre-environment codebase could not express without a new module, each
writing its spec literally:

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

from typing import Any, Dict, List, Mapping, Optional, Union

from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig
from repro.workloads.scenario import Scenario

__all__ = [
    "asymmetric_link_scenario",
    "churn_scenario",
    "environment_scenario",
    "environment_workload",
    "gray_partition_scenario",
    "resolve_environment",
]

EnvironmentLike = Union[EnvironmentSpec, Mapping[str, Any]]


def resolve_environment(env: EnvironmentLike) -> EnvironmentSpec:
    """Coerce a spec or a plain spec dict into an EnvironmentSpec."""
    if isinstance(env, EnvironmentSpec):
        return env
    if isinstance(env, Mapping):
        return EnvironmentSpec.from_dict(env)
    raise ConfigurationError(
        f"cannot resolve environment from {type(env).__name__}; "
        "pass an EnvironmentSpec or a spec dict (named environments are workloads)"
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
) -> Scenario:
    """A runnable scenario from any environment spec.

    Args:
        env: The environment — an :class:`EnvironmentSpec` or a spec dict.
        n: Number of processes.
        ts: Stabilization time; defaults to ``10δ``.
        max_time: Simulation horizon; defaults to ``ts + 400δ``.
        name: Scenario name; defaults to ``<env-name>-n<n>``.
        notes: Scenario notes; default to the spec's own.
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
        max_time=max_time if max_time is not None else ts + 400.0 * params.delta,
    )
    return Scenario(
        name=name if name is not None else f"{spec.name or 'environment'}-n{n}",
        config=config,
        environment=spec,
        initial_values=initial_values,
        expected_deciders=expected_deciders,
        notes=notes if notes is not None else spec.notes,
    )


def environment_workload(
    n: int,
    env: EnvironmentLike,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
) -> Scenario:
    """Run any inline environment spec (the ``--env`` workload)."""
    return environment_scenario(
        env, n=n, params=params, ts=ts, seed=seed, max_time=max_time
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
    environment = EnvironmentSpec(
        name="asymmetric-link",
        adversary=AdversarySpec(
            "asymmetric-link",
            {
                "hub": hub,
                "direction": direction,
                "slow_factor": slow_factor,
                "slow_post_ts": slow_post_ts,
            },
        ),
        notes=(
            f"links {direction} p{hub} (the lowest-id post-TS coordinator is p0) "
            "crawl while every other link is prompt"
        ),
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
    environment = EnvironmentSpec(
        name="gray-partition",
        adversary=AdversarySpec(
            "gray-partition",
            {
                "partition": {"mode": "minority"},
                "heal_start": heal_start,
                "end_drop": end_drop,
            },
        ),
        faults=(
            FaultSpec("random-before-ts", {"allow_recovery": True})
            if with_crashes and n >= 3
            else FaultSpec("none")
        ),
        notes="a minority partition that heals gradually (linearly) before TS",
    )
    return environment_scenario(
        environment, n=n, params=params, ts=ts, seed=seed, max_time=max_time,
        name=f"gray-partition-n{n}",
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
    fault_params: Dict[str, Any] = {
        "waves": waves,
        "up_time": up_time,
        "down_time": down_time,
        "first_offset": first_offset,
    }
    if num_victims is not None:
        fault_params["num_victims"] = num_victims
    environment = EnvironmentSpec(
        name="churn",
        adversary=AdversarySpec("drop-all"),
        faults=FaultSpec("churn-waves", fault_params),
        notes=(
            "pre-TS messages lost; after TS a minority churns through repeated "
            "crash/restart waves while the majority stays up"
        ),
    )
    churn_span = first_offset + waves * (up_time + down_time)
    horizon = max_time if max_time is not None else ts + (churn_span + 100.0) * params.delta
    return environment_scenario(
        environment, n=n, params=params, ts=ts, seed=seed, max_time=horizon,
        name=f"churn-n{n}-w{waves}",
    )
