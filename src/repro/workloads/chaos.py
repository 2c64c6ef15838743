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

Each writes its environment spec literally and builds through
:func:`~repro.workloads.environments.environment_scenario`, which adds the
run configuration (``n``, ``ts``, the ``ts + 400δ`` horizon, seed).
"""

from __future__ import annotations

from typing import Optional

from repro.env.spec import AdversarySpec, EnvironmentSpec, FaultSpec
from repro.params import TimingParams
from repro.workloads.environments import environment_scenario
from repro.workloads.scenario import Scenario

__all__ = ["partitioned_chaos_scenario", "lossy_chaos_scenario"]


def _chaos_faults(with_crashes: bool) -> FaultSpec:
    """The chaos workloads' shared pre-``TS`` crash/recovery schedule."""
    if with_crashes:
        return FaultSpec("random-before-ts", {"allow_recovery": True})
    return FaultSpec("random-before-ts", {"max_faulty": 0})


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
    adversary = AdversarySpec(
        "partition",
        {
            "partition": {"mode": "minority"},
            "leak_probability": leak_probability,
            "leak_past_ts": True,
        },
    )
    if worst_case_post_delays:
        adversary = AdversarySpec("worst-case-delay", inner=adversary)
    environment = EnvironmentSpec(
        name="partitioned-chaos",
        adversary=adversary,
        faults=_chaos_faults(with_crashes and n >= 3),
        notes="minority partitions with leaks past TS, random crashes/recoveries before TS",
    )

    suffix = "-worstdelay" if worst_case_post_delays else ""
    return environment_scenario(
        environment,
        n=n,
        params=params,
        ts=ts,
        seed=seed,
        max_time=max_time,
        name=f"partitioned-chaos-n{n}{suffix}",
        notes=(
            "pre-TS: minority partitions (no quorum can form), occasional leaked "
            "messages with long delays, crashes and some restarts; post-TS: "
            + ("every delivery takes the full delta" if worst_case_post_delays else "synchronous")
        ),
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
    environment = EnvironmentSpec(
        name="lossy-chaos",
        adversary=AdversarySpec(
            "random-chaos",
            {
                "drop_probability": drop_probability,
                "defer_probability": defer_probability,
                "max_defer_delta": 5.0,
                "max_delay_factor": 4.0,
                "duplicate_prob": 0.05,
            },
        ),
        faults=_chaos_faults(with_crashes and n >= 3),
        notes="independent random loss/delay/deferral/duplication before TS",
    )

    return environment_scenario(
        environment,
        n=n,
        params=params,
        ts=ts,
        seed=seed,
        max_time=max_time,
        name=f"lossy-chaos-n{n}",
        notes=(
            "pre-TS: random loss/delay/deferral/duplication, crashes and some restarts; "
            "post-TS: synchronous"
        ),
    )
