"""The Ω leader-election oracle.

Section 2 of the paper analyses traditional Paxos under the *assumption*
that "the leader-election procedure is guaranteed to choose a unique,
nonfaulty leader within O(δ) seconds after the system is stable".  The
oracle here realizes exactly that assumption without simulating a concrete
election protocol: from ``ts + δ`` on every query returns the lowest-id
process that is up (and, by the model, will stay up); before that, every
process trusts itself, so the answers differ between processes.

The oracle is deliberately omniscient — it peeks at the node table — because
its correctness is an *assumption granted to the baseline*, not a system
under study.  Using it therefore never weakens the comparison against the
paper's own algorithm, which uses no oracle at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

__all__ = ["OmegaOracle"]


class OmegaOracle:
    """Eventual leader election that converges ``δ`` after ``ts``.

    Before convergence every process trusts itself, the most disruptive
    benign-looking choice (it maximizes competing ballots).  After it, every
    query returns the lowest-id process that is up.

    Args:
        simulator: The simulator whose node liveness is consulted.
    """

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        # How long after ``ts`` the oracle may still give divergent answers:
        # O(δ), as the paper's assumption requires.
        self.stabilization_delay = simulator.config.params.delta

    @property
    def convergence_time(self) -> float:
        """Real time from which the oracle's answer is unique and correct."""
        return self.simulator.config.ts + self.stabilization_delay

    def leader(self, querying_pid: int) -> int:
        """The process ``querying_pid`` currently trusts as leader."""
        now = self.simulator.now()
        if now < self.convergence_time:
            return querying_pid
        alive = self.simulator.alive_pids()
        if not alive:
            # Degenerate corner: everything crashed; fall back to self-trust.
            return querying_pid
        return min(alive)

    def believes_self_leader(self, pid: int) -> bool:
        """Convenience wrapper used by the Paxos proposer."""
        return self.leader(pid) == pid
