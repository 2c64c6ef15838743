"""Traditional Ω-driven single-decree Paxos (the Section 2 baseline).

The process combines the acceptor and proposer roles.  Leadership comes from
the :class:`repro.oracle.omega.OmegaOracle`; a process that believes itself
leader spontaneously (re)starts phase 1 every ``retry_interval`` seconds and
also immediately restarts it when it learns — through a ``rejected`` message
— that some acceptor has promised a higher ballot.

This is precisely the behaviour the paper shows to be too slow: each
obsolete higher-ballot message that surfaces after stabilization forces one
more rejection/retry cycle (roughly ``2δ``), and there can be
``⌈N/2⌉ − 1`` of them.
"""

from __future__ import annotations

from typing import Optional

from repro.consensus.base import ConsensusProcess, ProtocolBuilder
from repro.consensus.quorum import ValueQuorum
from repro.core.messages import (
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Rejected,
    ballot_of,
)
from repro.consensus.paxos.acceptor import AcceptOutcome, AcceptorState, PrepareOutcome
from repro.consensus.paxos.proposer import ProposerState
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.oracle.omega import OmegaOracle

__all__ = ["TraditionalPaxosProcess", "TraditionalPaxosBuilder"]


class TraditionalPaxosProcess(ConsensusProcess):
    """One process of traditional Paxos with an Ω oracle."""

    LEADER_PULSE_TIMER = "leader-pulse"
    RETRY_FACTOR = 2.0  # the leader pulse period, in δ

    def __init__(self, oracle: OmegaOracle) -> None:
        super().__init__()
        self.oracle = oracle

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self._accept_votes = ValueQuorum(self.quorum)
        self.acceptor = AcceptorState.restore(self.recall("acceptor"), default_mbal=self.pid)
        self.proposer = ProposerState(self.pid, self.n)
        self.proposer.observe_ballot(self.recall("highest_seen", self.acceptor.mbal))

        if self.recover_decision():
            self._broadcast_decision()
            self._arm_pulse()
            return
        self._arm_pulse()
        self._leader_pulse()

    @property
    def retry_interval(self) -> float:
        """How often a self-believed leader spontaneously restarts phase 1."""
        return self.RETRY_FACTOR * self.delta

    def _arm_pulse(self) -> None:
        self.ctx.set_timer(self.LEADER_PULSE_TIMER, self.retry_interval * (1.0 + self.rho))

    # ------------------------------------------------------------------ timers
    def on_timer(self, name: str) -> None:
        if name != self.LEADER_PULSE_TIMER:
            return
        self._leader_pulse()
        self._arm_pulse()

    def _leader_pulse(self) -> None:
        if self.has_decided:
            self._broadcast_decision()
            return
        if not self.oracle.believes_self_leader(self.pid):
            self.proposer.abandon()
            return
        attempt = self.proposer.attempt
        now_local = self.ctx.local_time()
        if attempt is not None and not attempt.phase2a_sent:
            # A phase-1 attempt is still in flight; give it one full pulse
            # before abandoning it for a fresh ballot.
            if now_local - attempt.started_local < self.retry_interval:
                return
        self._start_phase1()

    def _start_phase1(self) -> None:
        attempt = self.proposer.start_attempt(self.ctx.local_time())
        self.ctx.emit("start_phase1", ballot=attempt.ballot, attempt=self.proposer.attempts_started)
        self.ctx.broadcast(Phase1a(mbal=attempt.ballot))

    # ------------------------------------------------------------------ messages
    def on_message(self, message: Message, sender: int) -> None:
        if isinstance(message, Decision):
            self.decide_once(message.value)
            return
        if self.has_decided:
            self.ctx.send(Decision(value=self.decided_value), sender)
            return

        ballot = ballot_of(message)
        if ballot >= 0:
            self.proposer.observe_ballot(ballot)

        if isinstance(message, Phase1a):
            self._on_phase1a(message)
        elif isinstance(message, Phase1b):
            self._on_phase1b(message, sender)
        elif isinstance(message, Phase2a):
            self._on_phase2a(message)
        elif isinstance(message, Phase2b):
            self._on_phase2b(message, sender)
        elif isinstance(message, Rejected):
            self._on_rejected(message)

    # -- acceptor side ------------------------------------------------------------
    def _on_phase1a(self, message: Phase1a) -> None:
        outcome = self.acceptor.handle_prepare(message.mbal)
        self._persist_acceptor()
        owner = message.mbal % self.n
        if outcome is PrepareOutcome.PROMISED:
            voted_bal, voted_val = self.acceptor.last_vote
            self.ctx.send(
                Phase1b(mbal=message.mbal, voted_bal=voted_bal, voted_val=voted_val), owner
            )
        else:
            self.ctx.send(Rejected(mbal=self.acceptor.mbal), owner)

    def _on_phase2a(self, message: Phase2a) -> None:
        outcome = self.acceptor.handle_accept(message.mbal, message.value)
        self._persist_acceptor()
        owner = message.mbal % self.n
        if outcome is AcceptOutcome.ACCEPTED:
            self.ctx.broadcast(Phase2b(mbal=message.mbal, value=message.value))
        else:
            self.ctx.send(Rejected(mbal=self.acceptor.mbal), owner)

    # -- proposer side ----------------------------------------------------------------
    def _on_phase1b(self, message: Phase1b, sender: int) -> None:
        if not self.proposer.is_current(message.mbal):
            return
        attempt = self.proposer.attempt
        attempt.record_promise(sender, message.voted_bal, message.voted_val)
        if attempt.promise_count() >= self.quorum and not attempt.phase2a_sent:
            value = attempt.choose_value(self.proposal())
            attempt.phase2a_sent = True
            self.ctx.emit("phase2a", ballot=attempt.ballot, value=value)
            self.ctx.broadcast(Phase2a(mbal=attempt.ballot, value=value))

    def _on_rejected(self, message: Rejected) -> None:
        self.proposer.observe_ballot(message.mbal)
        self.persist(highest_seen=self.proposer.highest_seen)
        if self.has_decided or not self.oracle.believes_self_leader(self.pid):
            return
        current = self.proposer.current_ballot()
        if current is not None and message.mbal <= current:
            # Stale rejection of an attempt we already abandoned.
            return
        self.ctx.emit("rejected", above=message.mbal, previous=current)
        self._start_phase1()

    def _on_phase2b(self, message: Phase2b, sender: int) -> None:
        self._accept_votes.add(message.mbal, sender, message.value)
        if self._accept_votes.reached(message.mbal):
            value = self._accept_votes.quorum_value(message.mbal)
            if value is not None:
                self.decide_once(value)
                self._broadcast_decision()

    # -- helpers -----------------------------------------------------------------------------
    def _persist_acceptor(self) -> None:
        self.persist(acceptor=self.acceptor.snapshot())

    def _broadcast_decision(self) -> None:
        self.ctx.broadcast(Decision(value=self.decided_value), include_self=False)


class TraditionalPaxosBuilder(ProtocolBuilder):
    """Builds traditional Paxos processes sharing one Ω oracle."""

    name = "traditional-paxos"

    def __init__(self) -> None:
        super().__init__()
        self.oracle: Optional[OmegaOracle] = None

    def attach(self, simulator) -> None:  # type: ignore[override]
        super().attach(simulator)
        self.oracle = OmegaOracle(simulator)

    def create(self, pid: int) -> TraditionalPaxosProcess:
        if self.oracle is None:
            raise ConfigurationError(
                "TraditionalPaxosBuilder.attach(simulator) must be called before create()"
            )
        return TraditionalPaxosProcess(oracle=self.oracle)
