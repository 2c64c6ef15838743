"""The kitchen-sink workload: every adversity the model allows, at once.

Before stabilization: minority partitions, cross-partition messages either
lost or deferred until after ``TS``, random duplication, crashes, and some
pre-``TS`` restarts.  After stabilization: every delivery takes the full
``δ`` (the worst the model permits) and a crashed process restarts late.
This is the closest the test suite gets to a genuinely worst-case execution
while staying inside the model's assumptions, and is used by the stress
integration tests and as a harder variant of experiment E1.

The adversary is a three-deep spec chain — ``worst-case-delay`` wrapping
``deferring-partition`` wrapping ``partition`` — which is exactly the kind
of composition the environment layer exists for.
"""

from __future__ import annotations

from typing import Optional

from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig
from repro.workloads.scenario import Scenario

__all__ = ["kitchen_sink_scenario"]


def kitchen_sink_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    defer_probability: float = 0.25,
    duplicate_prob: float = 0.1,
    late_restart_offset: float = 12.0,
    max_time: Optional[float] = None,
) -> Scenario:
    """Combine partitions, deferral, duplication, crashes, restarts, and slow post-``TS`` links."""
    if n < 3:
        raise ConfigurationError("kitchen_sink_scenario needs n >= 3")
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 10.0 * params.delta
    delta = params.delta
    horizon = max_time if max_time is not None else ts + (late_restart_offset + 200.0) * delta
    config = SimulationConfig(n=n, params=params, ts=ts, seed=seed, max_time=horizon)

    majority = n // 2 + 1
    max_faulty = n - majority
    victims = list(range(n - max_faulty, n))
    events = []
    for index, victim in enumerate(victims):
        events.append({"time": 0.2 * ts + 0.05 * index * ts, "pid": victim, "kind": "crash"})
        if index == 0:
            # The first victim comes back before stabilization ...
            events.append({"time": 0.8 * ts, "pid": victim, "kind": "restart"})
        elif index == 1:
            # ... the second only well after it ...
            events.append(
                {"time": ts + late_restart_offset * delta, "pid": victim, "kind": "restart"}
            )
        # ... and any further victims stay down forever (majority remains up).

    environment = EnvironmentSpec(
        name="kitchen-sink",
        adversary=AdversarySpec(
            "worst-case-delay",
            inner=AdversarySpec(
                "deferring-partition",
                {
                    "defer_probability": defer_probability,
                    "max_defer_delta": 3.0,
                    "duplicate_prob": duplicate_prob,
                },
                inner=AdversarySpec("partition", {"partition": {"mode": "minority"}}),
            ),
        ),
        faults=FaultSpec("explicit", {"events": events}),
    )

    return Scenario(
        name=f"kitchen-sink-n{n}",
        config=config,
        environment=environment,
        notes=(
            "pre-TS: minority partitions, cross-partition messages lost or deferred past TS, "
            "duplication, crashes with one pre-TS restart; post-TS: full-delta deliveries and "
            "one late restart"
        ),
    )
