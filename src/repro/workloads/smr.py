"""SMR scenario family: registry workloads sized for multi-decree runs.

The multi-decree service (:mod:`repro.smr`) runs on ordinary
:class:`~repro.workloads.scenario.Scenario` objects — what distinguishes an
"SMR workload" is only the execution path
(:func:`~repro.smr.runner.run_smr` instead of a single-decree protocol) and,
for two of them, a default sized for a command stream.

So the ``smr-*`` names are aliases: each registers a single-decree scenario
factory under its own name, summary and parameter help.  The factory keeps
its scenario *name*, and the name seeds the network RNG fork, so an
``smr-chaos`` run is trace-identical to a ``partitioned-chaos`` run with the
same arguments.

* ``smr-chaos``, ``smr-gray-partition`` and ``smr-asymmetric-link`` are the
  single-decree factories themselves;
* ``smr-churn`` is :func:`~repro.workloads.environments.churn_scenario` with
  ``waves=2`` bound;
* ``smr-stable`` is :func:`~repro.workloads.stable.stable_scenario` with a
  400δ horizon, room for long command streams.

``SMR_WORKLOADS`` names every registered SMR workload; the CLI uses it to
route ``repro run --workload smr-*`` through the SMR runner.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.params import TimingParams
from repro.workloads.chaos import partitioned_chaos_scenario
from repro.workloads.environments import (
    asymmetric_link_scenario,
    churn_scenario,
    gray_partition_scenario,
)
from repro.workloads.registry import register_workload
from repro.workloads.scenario import Scenario
from repro.workloads.stable import stable_scenario

__all__ = [
    "SMR_WORKLOADS",
    "is_smr_workload",
    "smr_stable_scenario",
]

SMR_WORKLOADS = (
    "smr-stable",
    "smr-chaos",
    "smr-churn",
    "smr-gray-partition",
    "smr-asymmetric-link",
)


def is_smr_workload(name: str) -> bool:
    """Whether ``name`` is a workload meant for the SMR runner."""
    return name in SMR_WORKLOADS


@register_workload(
    "smr-stable",
    summary="SMR: synchronous from t=0, no faults — the phase-1-pre-executed fast path (E9)",
    param_help={
        "n": "number of replicas",
        "max_time": "simulation horizon (defaults to 400 delta, room for long command streams)",
    },
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


register_workload(
    "smr-chaos",
    summary="SMR: minority partitions and crashes before TS, commands replicated after (E9)",
    param_help={
        "n": "number of replicas",
        "ts": "stabilization time (defaults to 10 delta)",
        "leak_probability": "chance a cross-partition message leaks with a long delay",
    },
)(partitioned_chaos_scenario)

# Every victim restarts, so all replicas are expected to converge on the full
# log by the horizon: this family exercises the multi-decree catch-up path
# (decided entries piggybacked on promises).
register_workload(
    "smr-churn",
    summary="SMR: post-TS crash/restart waves over a minority while commands flow",
    param_help={
        "n": "number of replicas (at least 3)",
        "waves": "restart cycles per victim after TS",
        "num_victims": "how many replicas churn (defaults to the largest minority)",
    },
)(partial(churn_scenario, waves=2))

register_workload(
    "smr-gray-partition",
    summary="SMR: a minority partition healing gradually before TS under commands",
    param_help={
        "n": "number of replicas",
        "heal_start": "fraction of ts at which the partition starts healing",
        "end_drop": "cross-group drop probability remaining at TS",
    },
)(gray_partition_scenario)

register_workload(
    "smr-asymmetric-link",
    summary="SMR: slow links around the serving leader; follower submissions feel the hub",
    param_help={
        "n": "number of replicas",
        "hub": "replica whose links are slow (default 0)",
        "slow_factor": "pre-TS delays on slow links go up to slow_factor * delta",
    },
)(asymmetric_link_scenario)
