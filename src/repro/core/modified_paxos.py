"""Modified Paxos (Section 4): leaderless, session-based, O(δ)-after-stability.

The algorithm is single-decree Paxos with three changes:

1. **Sessions.**  Ballot ``b`` belongs to session ``⌊b/N⌋``.  A process may
   execute Start Phase 1 — jumping to the unique ballot it owns in the next
   session — only when (i) its session timer has expired and (ii) it is in
   session 0 or has received a message of its current session from a
   majority of processes.  This is the round-based trick that prevents
   anomalously high ballots: no matter what happened before stabilization,
   in-flight and crashed-process ballots can exceed the highest non-faulty
   session by at most one.

2. **Session-entry broadcasts.**  Whenever a process enters a new session it
   broadcasts a phase 1a message carrying its current ballot, so session
   announcements flood the system within one message delay.

3. **ε keep-alive.**  A process that has not sent a phase 1a or 2a message
   within the last ``ε`` re-broadcasts a phase 1a with its current ballot.
   After stabilization this restores communication within ``ε + δ`` even if
   every earlier message was lost.

There is no leader-election oracle and no ``rejected`` message; timeouts do
all the driving.  The session timer is armed for at least ``4δ`` real
seconds (programmed as ``4δ(1+ρ)`` local), so once a "clean" session starts
after stabilization it has time to finish before anyone interrupts it.

Decision announcements implement the optimization the paper mentions: a
decided process stops executing the algorithm, answers every protocol
message with its decision, and periodically re-broadcasts it so restarted
processes catch up within ``O(δ)``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.consensus.base import ProtocolBuilder
from repro.consensus.quorum import ValueQuorum
from repro.core.messages import Decision, Phase1a, Phase1b, Phase2a, Phase2b
from repro.core.sessions import SessionProcess, initial_ballot, session_of
from repro.net.message import Message

__all__ = ["ModifiedPaxosProcess", "ModifiedPaxosBuilder"]


class ModifiedPaxosProcess(SessionProcess):
    """One process of the Modified Paxos algorithm."""

    PHASE1A = Phase1a

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        # Volatile state (rebuilt on every incarnation).
        self._promises: Dict[int, Dict[int, Tuple[int, Any]]] = {}
        self._accept_votes = ValueQuorum(self.quorum)
        self._phase2a_sent: set[int] = set()

        if self.recover_decision():
            # A previous incarnation already decided; keep announcing it.
            self._broadcast_decision()
            self._arm_keepalive()
            return

        # Durable Paxos state (the paper keeps it in stable storage).
        self.mbal = self.recall("mbal", initial_ballot(self.pid, self.n))
        self.abal: int = self.recall("abal", -1)
        self.aval: Any = self.recall("aval", None)

        self._start_sessions()

    # ------------------------------------------------------------------ timers
    def _on_keepalive(self) -> None:
        if self.has_decided:
            self._broadcast_decision()
            self._arm_keepalive()
        else:
            super()._on_keepalive()

    # ------------------------------------------------------------------ messages
    def on_message(self, message: Message, sender: int) -> None:
        if isinstance(message, Decision):
            self.decide_once(message.value)
            return
        if self.has_decided:
            # Stopped executing the algorithm: answer with the decision.
            self.ctx.send(Decision(value=self.decided_value), sender)
            return

        ballot = getattr(message, "mbal", -1)
        if ballot >= 0:
            self._tracker.observe(ballot, sender)

        if isinstance(message, Phase1a):
            self._on_phase1a(message)
        elif isinstance(message, Phase1b):
            self._on_phase1b(message, sender)
        elif isinstance(message, Phase2a):
            self._on_phase2a(message)
        elif isinstance(message, Phase2b):
            self._on_phase2b(message, sender)
        # A newly satisfied majority condition may enable a pending Start Phase 1.
        self._try_start_phase1()

    # -- phase 1 -----------------------------------------------------------------
    def _promise(self, ballot: int) -> Phase1b:
        return Phase1b(mbal=ballot, voted_bal=self.abal, voted_val=self.aval)

    def _on_phase1b(self, message: Phase1b, sender: int) -> None:
        if message.mbal % self.ctx.n != self.pid:  # ``owner_of`` inlined (hot)
            return
        if message.mbal != self.mbal or message.mbal in self._phase2a_sent:
            return
        votes = self._promises.setdefault(message.mbal, {})
        votes.setdefault(sender, (message.voted_bal, message.voted_val))
        if len(votes) >= self.quorum:
            self._send_phase2a(message.mbal, votes)

    def _send_phase2a(self, ballot: int, votes: Dict[int, Tuple[int, Any]]) -> None:
        voted = [(bal, val) for bal, val in votes.values() if bal >= 0]
        if voted:
            _, value = max(voted, key=lambda item: item[0])
        else:
            value = self.proposal()
        self._phase2a_sent.add(ballot)
        self.ctx.emit("phase2a", ballot=ballot, session=session_of(ballot, self.n), value=value)
        self._sent_recently = True
        self.ctx.broadcast(Phase2a(mbal=ballot, value=value))

    # -- phase 2 --------------------------------------------------------------------
    def _accept(self, message: Phase2a) -> None:
        self.abal = message.mbal
        self.aval = message.value
        self.persist(mbal=self.mbal, abal=self.abal, aval=self.aval)
        self.ctx.broadcast(Phase2b(mbal=message.mbal, value=message.value))

    def _on_phase2b(self, message: Phase2b, sender: int) -> None:
        self._accept_votes.add(message.mbal, sender, message.value)
        if self._accept_votes.reached(message.mbal):
            value = self._accept_votes.quorum_value(message.mbal)
            if value is not None:
                self.decide_once(value)
                self._broadcast_decision()

    # -- ballot bookkeeping and sends ------------------------------------------------------
    def _ballot_changed(self) -> None:
        self.persist(mbal=self.mbal, abal=self.abal, aval=self.aval)

    def _broadcast_decision(self) -> None:
        self.ctx.broadcast(Decision(value=self.decided_value), include_self=False)


class ModifiedPaxosBuilder(ProtocolBuilder):
    """Builds :class:`ModifiedPaxosProcess` instances (no oracles needed)."""

    name = "modified-paxos"

    def create(self, pid: int) -> ModifiedPaxosProcess:
        return ModifiedPaxosProcess()

    def invariant_checks(self):
        from repro.analysis.invariants import check_session_entry_rule

        return {"session-entry-rule": check_session_entry_rule}
