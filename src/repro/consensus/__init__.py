"""Consensus framework: shared protocol machinery, baselines, and the spec.

The paper's own algorithm lives in :mod:`repro.core`; this package holds
everything the protocols share (quorum counters, persistence helpers, the
safety specification) and the three comparison protocols:

* :mod:`repro.consensus.paxos` — traditional single-decree Paxos driven by
  an Ω leader oracle (Section 2's baseline);
* :mod:`repro.consensus.roundbased` — a rotating-coordinator round-based
  algorithm with the majority-round-entry rule (Section 3's baseline);
* :mod:`repro.consensus.bconsensus` — the leaderless B-Consensus algorithm
  of Pedone et al. over the weak ordering oracle, plus the paper's
  Section 5 modification.
"""

from repro.consensus.base import ConsensusProcess, ProtocolBuilder
from repro.consensus.quorum import QuorumCounter, ValueQuorum, majority
from repro.consensus.registry import PROTOCOLS, protocol_builder
from repro.consensus.spec import SafetyReport, check_safety
from repro.consensus.values import DecisionOutcome, RunOutcome

__all__ = [
    "ConsensusProcess",
    "DecisionOutcome",
    "PROTOCOLS",
    "ProtocolBuilder",
    "QuorumCounter",
    "RunOutcome",
    "SafetyReport",
    "ValueQuorum",
    "check_safety",
    "majority",
    "protocol_builder",
]
