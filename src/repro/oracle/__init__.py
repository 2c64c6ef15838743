"""Oracles: logical clocks, leader election, weak ordering.

These are the auxiliary abstractions the paper's discussion relies on:

* :mod:`repro.oracle.lamport` — Lamport logical clocks (used to timestamp
  weak-ordering-oracle broadcasts, Section 5);
* :mod:`repro.oracle.omega` — the Ω leader-election oracle that the paper
  *grants* to traditional Paxos in Section 2 ("suppose the leader-election
  procedure is guaranteed to choose a unique, nonfaulty leader within O(δ)
  seconds after the system is stable");
* :mod:`repro.oracle.wab` — the weak-atomic-broadcast ordering oracle built
  from logical timestamps plus a ``2δ`` hold-back, Section 5's construction.
"""

from repro.oracle.lamport import LamportClock, LogicalTimestamp
from repro.oracle.omega import OmegaOracle
from repro.oracle.wab import WabEndpoint, WabMessage

__all__ = [
    "LamportClock",
    "LogicalTimestamp",
    "OmegaOracle",
    "WabEndpoint",
    "WabMessage",
]
