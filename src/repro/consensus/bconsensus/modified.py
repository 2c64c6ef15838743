"""Modified B-Consensus (Section 5): round jumping, lean retransmission.

Two changes relative to the original:

* a process that hears about a higher round (through a stage-2 vote or a
  w-delivered stage-1 message) jumps straight to it instead of executing all
  intermediate rounds;
* the periodic retransmission only re-sends the current round's messages.

Together with the timestamp-plus-``2δ``-hold oracle implementation in
:mod:`repro.oracle.wab`, this gives the ``O(δ)``-after-stabilization
behaviour the paper claims for the modified algorithm (experiment E4).
"""

from __future__ import annotations

from repro.consensus.base import ProtocolBuilder
from repro.consensus.bconsensus.common import BConsensusCore

__all__ = ["ModifiedBConsensusProcess", "ModifiedBConsensusBuilder"]


class ModifiedBConsensusProcess(BConsensusCore):
    """B-Consensus with the Section 5 modifications."""

    def __init__(self) -> None:
        super().__init__(allow_jump=True, retransmit_all_rounds=False)


class ModifiedBConsensusBuilder(ProtocolBuilder):
    """Builds modified B-Consensus processes."""

    name = "modified-b-consensus"

    def create(self, pid: int) -> ModifiedBConsensusProcess:
        return ModifiedBConsensusProcess()
