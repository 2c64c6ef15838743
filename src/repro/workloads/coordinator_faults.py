"""Crashed-coordinator workload (experiment E3, the Section 3 argument).

The first ``f`` processes — the coordinators of rounds ``0 .. f−1`` — crash
before stabilization and never come back.  A rotating-coordinator algorithm
must sit through one full round timeout for each of them before it reaches a
round whose coordinator is alive, so its decision lag after ``TS`` grows
linearly in ``f`` (and ``f`` can be as large as ``⌈N/2⌉ − 1``).
"""

from __future__ import annotations

from typing import Optional

from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.workloads.environments import environment_scenario
from repro.workloads.scenario import Scenario

__all__ = ["coordinator_crash_scenario"]


def coordinator_crash_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    num_faulty: Optional[int] = None,
    max_time: Optional[float] = None,
) -> Scenario:
    """Crash the coordinators of the first ``num_faulty`` rounds before ``TS``."""
    if n < 3:
        raise ConfigurationError("coordinator_crash_scenario needs n >= 3")
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 5.0 * params.delta
    majority = n // 2 + 1
    max_faulty = n - majority
    f = num_faulty if num_faulty is not None else max_faulty
    if not 0 <= f <= max_faulty:
        raise ConfigurationError(
            f"num_faulty must be in [0, {max_faulty}] to keep a majority alive, got {f}"
        )

    delta = params.delta
    horizon = max_time if max_time is not None else ts + (8.0 * f + 80.0) * delta

    environment = EnvironmentSpec(
        name="coordinator-crash",
        adversary=AdversarySpec("drop-all"),
        faults=(
            FaultSpec("crash-forever", {"pids": list(range(f)), "time": 0.25 * ts})
            if f > 0
            else FaultSpec("none")
        ),
    )

    return environment_scenario(
        environment,
        n=n,
        params=params,
        ts=ts,
        seed=seed,
        max_time=horizon,
        name=f"coordinator-crash-n{n}-f{f}",
        notes=f"coordinators of rounds 0..{f - 1} crashed before TS; pre-TS messages all lost",
    )
