"""B-Consensus over a weak ordering oracle, original and modified (Section 5).

The B-Consensus algorithm of Pedone, Schiper, Urbán and Cavin is leaderless:
each round uses a weak-ordering (weak atomic broadcast) oracle in its first
stage and plain majority voting in its second.  The DSN paper sketches how
to make it decide within ``O(δ)`` of stabilization: implement the oracle
with logical-clock timestamps plus a ``2δ`` hold-back, keep the
majority-round-entry discipline, let processes jump directly to the highest
round they hear about, and retransmit only current-round messages.

Because the EDCC 2002 paper's exact pseudo-code is not reproduced in the DSN
paper, the implementation here is a faithful-in-spirit reconstruction with a
provably safe voting rule (vote-or-abstain, documented in
:mod:`repro.consensus.bconsensus.common`).
"""

from repro.consensus.bconsensus.messages import ABSTAIN, BDecision, FirstPayload, Vote
from repro.consensus.bconsensus.modified import (
    ModifiedBConsensusBuilder,
    ModifiedBConsensusProcess,
)
from repro.consensus.bconsensus.original import BConsensusBuilder, BConsensusProcess

__all__ = [
    "ABSTAIN",
    "BConsensusBuilder",
    "BConsensusProcess",
    "BDecision",
    "FirstPayload",
    "ModifiedBConsensusBuilder",
    "ModifiedBConsensusProcess",
    "Vote",
]
