"""Stable-from-the-start workloads (experiments E7 and E9).

With ``ts = 0`` the system is synchronous from the very beginning and there
are no faults: this isolates the protocols' failure-free fast path, which
the paper expects to be a small constant number of message delays.
:func:`smr_stable_scenario` is the same scenario with a horizon long enough
for an SMR command stream.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.env.spec import AdversarySpec, EnvironmentSpec
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig
from repro.workloads.scenario import Scenario

__all__ = ["smr_stable_scenario", "stable_scenario"]


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
        environment=EnvironmentSpec(
            name="stable",
            adversary=AdversarySpec("benign"),
            notes="benign delivery on every link, no faults",
        ),
        initial_values=initial_values,
        notes="synchronous from t=0, no faults: failure-free fast path",
    )


def smr_stable_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    seed: int = 0,
    max_time: Optional[float] = None,
) -> Scenario:
    """The stable scenario with an SMR-sized horizon."""
    params = params if params is not None else TimingParams()
    return stable_scenario(
        n,
        params=params,
        seed=seed,
        max_time=max_time if max_time is not None else 400.0 * params.delta,
    )
