"""Pre-stabilization chaos workloads (experiments E1, E4, E6, E8).

The point of these scenarios is to make the period before ``TS`` genuinely
hostile — no quorum can communicate, messages are lost or deferred past
``TS``, some processes crash and some of those restart — and then measure
how long after ``TS`` each protocol needs to decide.

Two flavours are provided:

* :func:`partitioned_chaos_scenario` keeps the processes split into minority
  groups before ``TS`` (so no protocol can decide early, making the
  post-``TS`` lag measurement clean) and additionally lets a fraction of
  cross-partition messages leak with large delays, including past ``TS``;
* :func:`lossy_chaos_scenario` uses independent random loss/delay/deferral
  per message, which is messier but statistically may let a protocol decide
  before ``TS`` on lucky seeds.

Both are thin wrappers around the identically named environment factories
in :mod:`repro.env.registry` — the factory is the single definition of each
environment; the workload only adds the run configuration (``n``, ``ts``,
horizon, seed).
"""

from __future__ import annotations

from typing import Optional

from repro.env.registry import lossy_chaos_environment, partitioned_chaos_environment
from repro.params import TimingParams
from repro.sim.simulator import SimulationConfig
from repro.workloads.registry import register_workload
from repro.workloads.scenario import Scenario

__all__ = ["partitioned_chaos_scenario", "lossy_chaos_scenario"]


def _config(
    n: int, params: TimingParams, ts: float, seed: int, max_time: Optional[float]
) -> SimulationConfig:
    default_horizon = ts + 400.0 * params.delta
    return SimulationConfig(
        n=n,
        params=params,
        ts=ts,
        seed=seed,
        max_time=max_time if max_time is not None else default_horizon,
    )


@register_workload(
    "partitioned-chaos",
    summary="minority partitions plus crashes/restarts before TS (E1, E4, E6, E8)",
    param_help={
        "n": "number of processes",
        "ts": "stabilization time (defaults to 10 delta)",
        "leak_probability": "chance a cross-partition message leaks with a long delay",
        "worst_case_post_delays": "post-TS deliveries take (almost) the full delta",
    },
)
def partitioned_chaos_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    with_crashes: bool = True,
    leak_probability: float = 0.05,
    worst_case_post_delays: bool = False,
    max_time: Optional[float] = None,
) -> Scenario:
    """Minority partitions plus crashes/restarts before ``TS``.

    With ``worst_case_post_delays`` every message sent after stabilization
    takes (almost) the full ``δ`` instead of a uniformly random delay,
    pushing measured decision lags toward the analytic worst case.
    """
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 10.0 * params.delta
    config = _config(n, params, ts, seed, max_time)

    environment = partitioned_chaos_environment(
        leak_probability=leak_probability,
        worst_case_post_delays=worst_case_post_delays,
        with_crashes=with_crashes and n >= 3,
    )

    suffix = "-worstdelay" if worst_case_post_delays else ""
    return Scenario(
        name=f"partitioned-chaos-n{n}{suffix}",
        config=config,
        environment=environment,
        notes=(
            "pre-TS: minority partitions (no quorum can form), occasional leaked "
            "messages with long delays, crashes and some restarts; post-TS: "
            + ("every delivery takes the full delta" if worst_case_post_delays else "synchronous")
        ),
    )


@register_workload(
    "lossy-chaos",
    summary="independent random loss/delay/deferral/duplication before TS",
    param_help={
        "n": "number of processes",
        "ts": "stabilization time (defaults to 10 delta)",
        "drop_probability": "chance a pre-TS message is dropped outright",
    },
)
def lossy_chaos_scenario(
    n: int,
    params: Optional[TimingParams] = None,
    ts: Optional[float] = None,
    seed: int = 0,
    drop_probability: float = 0.85,
    defer_probability: float = 0.05,
    with_crashes: bool = True,
    max_time: Optional[float] = None,
) -> Scenario:
    """Independent random loss, delay, deferral, and duplication before ``TS``."""
    params = params if params is not None else TimingParams()
    ts = ts if ts is not None else 10.0 * params.delta
    config = _config(n, params, ts, seed, max_time)

    environment = lossy_chaos_environment(
        drop_probability=drop_probability,
        defer_probability=defer_probability,
        with_crashes=with_crashes and n >= 3,
    )

    return Scenario(
        name=f"lossy-chaos-n{n}",
        config=config,
        environment=environment,
        notes=(
            "pre-TS: random loss/delay/deferral/duplication, crashes and some restarts; "
            "post-TS: synchronous"
        ),
    )
