"""SMR scenario family: catalogue workloads sized for multi-decree runs.

The multi-decree service (:mod:`repro.smr`) runs on ordinary
:class:`~repro.workloads.scenario.Scenario` objects — what distinguishes an
"SMR workload" is only the protocol builder
(:class:`~repro.smr.multi_paxos.MultiPaxosSmrBuilder`) and, for two of
them, a default sized for a command stream.

So the ``smr-*`` names are aliases: each is a
:data:`~repro.workloads.registry.WORKLOADS` entry that pairs a
single-decree scenario factory with its own summary and parameter help.
The factory keeps its scenario *name*, and the name seeds the network RNG
fork, so an ``smr-chaos`` run is trace-identical to a ``partitioned-chaos``
run with the same arguments.

* ``smr-chaos``, ``smr-gray-partition`` and ``smr-asymmetric-link`` are the
  single-decree factories themselves;
* ``smr-churn`` is :func:`~repro.workloads.environments.churn_scenario` with
  ``waves=2`` bound;
* ``smr-stable`` is :func:`~repro.workloads.stable.smr_stable_scenario`, the
  stable scenario with a 400δ horizon, room for long command streams.

``SMR_WORKLOADS`` is read off the table's ``smr-`` entries; the CLI uses it
to route ``repro run --workload smr-*`` to the multi-decree service.
"""

from __future__ import annotations

from repro.workloads.registry import WORKLOADS

__all__ = ["SMR_WORKLOADS", "is_smr_workload"]

SMR_WORKLOADS = tuple(name for name in WORKLOADS if name.startswith("smr-"))


def is_smr_workload(name: str) -> bool:
    """Whether ``name`` is a workload meant for multi-decree (SMR) runs."""
    return name in SMR_WORKLOADS
