"""Stable-from-the-start workload (experiment E7).

With ``ts = 0`` the system is synchronous from the very beginning and there
are no faults: this isolates the protocols' failure-free fast path, which
the paper expects to be a small constant number of message delays.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.env.registry import stable_environment
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig
from repro.workloads.registry import register_workload
from repro.workloads.scenario import Scenario

__all__ = ["stable_scenario"]


@register_workload(
    "stable",
    summary="synchronous from t=0, no faults: the failure-free fast path (E7)",
    param_help={
        "n": "number of processes",
        "max_time": "simulation horizon (defaults to 200 delta)",
    },
)
def stable_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    seed: int = 0,
    initial_values: Optional[List[Any]] = None,
    max_time: Optional[float] = None,
) -> Scenario:
    """A failure-free, synchronous-from-time-zero scenario."""
    params = params if params is not None else TimingParams()
    config = SimulationConfig(
        n=n,
        params=params,
        ts=0.0,
        seed=seed,
        max_time=max_time if max_time is not None else 200.0 * params.delta,
    )
    return Scenario(
        name=f"stable-n{n}",
        config=config,
        environment=stable_environment(),
        initial_values=initial_values,
        notes="synchronous from t=0, no faults: failure-free fast path",
    )
