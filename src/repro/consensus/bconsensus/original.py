"""The original B-Consensus algorithm (no jumping, retransmit everything).

As discussed in Section 5 of the DSN paper, the algorithm of Pedone et al.
"requires that a process execute all previous rounds before entering a new
round", so processes must keep retransmitting their messages from *all*
previous rounds for a process left behind (or restarted) to catch up.  That
is what this variant does; the modified variant in
:mod:`repro.consensus.bconsensus.modified` replaces it with round jumping
and current-round-only retransmission.
"""

from __future__ import annotations

from repro.consensus.base import ProtocolBuilder
from repro.consensus.bconsensus.common import BConsensusCore

__all__ = ["BConsensusProcess", "BConsensusBuilder"]


class BConsensusProcess(BConsensusCore):
    """B-Consensus as in Pedone et al.: rounds are executed strictly in order."""

    def __init__(self) -> None:
        super().__init__(allow_jump=False, retransmit_all_rounds=True)


class BConsensusBuilder(ProtocolBuilder):
    """Builds original B-Consensus processes."""

    name = "b-consensus"

    def create(self, pid: int) -> BConsensusProcess:
        return BConsensusProcess()
