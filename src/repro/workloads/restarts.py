"""Restart-after-stability workload (experiment E5).

Some processes crash before ``TS`` and restart only *after* it — at
``TS + offset`` for a range of offsets.  The paper claims a process that
restarts at ``T′ > TS`` decides within ``O(δ)`` of ``T′`` (a consequence of
the main theorem applied with ``T′`` as the stabilization time, improved to
about ``τ + 5δ`` once the post-stability session cadence is running).  The
experiment measures the lag between each restart and that process's
decision.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.errors import ConfigurationError
from repro.params import TimingParams
from repro.workloads.environments import environment_scenario
from repro.workloads.scenario import Scenario

__all__ = ["restart_after_stability_scenario"]


def restart_after_stability_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    restart_offsets: Optional[Sequence[float]] = None,
    max_time: Optional[float] = None,
) -> Scenario:
    """Crash a minority before ``TS`` and restart them at ``TS + offset``.

    Args:
        restart_offsets: Offsets (in units of δ) after ``TS`` at which the
            crashed processes restart, one per restarted process; defaults to
            ``[5, 20, 40][:max_faulty]`` so restarts land both before and
            after the surviving majority has decided.
    """
    if n < 3:
        raise ConfigurationError("restart_after_stability_scenario needs n >= 3")
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 10.0 * params.delta
    delta = params.delta
    majority = n // 2 + 1
    max_faulty = n - majority

    offsets = list(restart_offsets) if restart_offsets is not None else [5.0, 20.0, 40.0]
    offsets = offsets[:max_faulty]
    if not offsets:
        raise ConfigurationError("need at least one restart offset (n too small?)")
    victims = list(range(n - len(offsets), n))

    horizon = max_time if max_time is not None else ts + (max(offsets) + 100.0) * delta

    events = []
    for victim, offset in zip(victims, offsets):
        events.append({"time": 0.25 * ts, "pid": victim, "kind": "crash"})
        events.append({"time": ts + offset * delta, "pid": victim, "kind": "restart"})

    environment = EnvironmentSpec(
        name="restarts",
        adversary=AdversarySpec("partition", {"partition": {"mode": "minority"}}),
        faults=FaultSpec("explicit", {"events": events}),
    )

    return environment_scenario(
        environment,
        n=n,
        params=params,
        ts=ts,
        seed=seed,
        max_time=horizon,
        name=f"restart-after-ts-n{n}",
        notes=(
            "processes "
            + ", ".join(f"p{pid}" for pid in victims)
            + " crash before TS and restart at TS + "
            + ", ".join(f"{offset:g}δ" for offset in offsets)
        ),
    )
