"""The rotating-coordinator round-based consensus algorithm.

One round, coordinated by process ``round mod N``, proceeds as follows:

1. Every process entering the round broadcasts ``StartRound(round, estimate,
   adopted_in)``.  These messages double as the coordinator's phase-1
   estimates and as the evidence required by the majority-round-entry rule.
2. The round's coordinator, once it holds ``StartRound`` messages of its
   round from a majority, proposes the estimate with the highest
   ``adopted_in`` (its own proposal if none was ever adopted) by
   broadcasting ``Propose(round, value)``.
3. A process that receives the proposal of its current round adopts it
   (``estimate := value``, ``adopted_in := round``) and broadcasts
   ``Ack(round, value)``.
4. A process that collects ``Ack(round, value)`` from a majority decides.

Round changes happen two ways: *jumping* — receiving any message of a higher
round moves a process straight to that round — and *spontaneous advancement*
on the round timer, which is only allowed once the process has heard
``StartRound`` messages of its current round from a majority (the rule that,
per Section 3, removes the obsolete-message problem round-based algorithms
would otherwise share with Paxos).

The cost, and the reason the paper rejects this baseline: every round whose
coordinator crashed before stabilization burns a full round timeout
(``O(δ)``), and up to ``⌈N/2⌉ − 1`` coordinators may be crashed, giving
``O(Nδ)`` to decide after stabilization.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Tuple

from repro.consensus.base import ConsensusProcess, ProtocolBuilder
from repro.consensus.quorum import ValueQuorum
from repro.consensus.roundbased.messages import Ack, Propose, RoundDecision, StartRound, round_of
from repro.core.timing import ROUND_TIMEOUT_FACTOR
from repro.net.message import Message

__all__ = ["RotatingCoordinatorProcess", "RotatingCoordinatorBuilder"]


class RotatingCoordinatorProcess(ConsensusProcess):
    """One process of the rotating-coordinator algorithm."""

    ROUND_TIMER = "round"
    RETRANSMIT_TIMER = "retransmit"

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        # Volatile per-round bookkeeping.
        self._round_entries: Dict[int, Dict[int, Tuple[Any, int]]] = defaultdict(dict)
        self._acks = ValueQuorum(self.quorum)
        self._proposed_rounds: set[int] = set()
        self._acked_rounds: set[int] = set()
        self._round_timer_expired = False

        if self.recover_decision():
            self._broadcast_decision()
            self._arm_retransmit()
            return

        self.round: int = self.recall("round", 0)
        self.estimate: Any = self.recall("estimate", self.proposal())
        self.adopted_in: int = self.recall("adopted_in", -1)

        self.ctx.emit("round_enter", round=self.round, via="start")
        self._broadcast_start_round()
        self._arm_round_timer()
        self._arm_retransmit()

    def coordinator_of(self, round_number: int) -> int:
        return round_number % self.n

    @property
    def is_coordinator(self) -> bool:
        return self.coordinator_of(self.round) == self.pid

    # ------------------------------------------------------------------ timers
    def _arm_round_timer(self) -> None:
        self._round_timer_expired = False
        local = ROUND_TIMEOUT_FACTOR * self.delta * (1.0 + self.rho)
        self.ctx.set_timer(self.ROUND_TIMER, local)

    def _arm_retransmit(self) -> None:
        local = self.delta * (1.0 + self.rho)
        self.ctx.set_timer(self.RETRANSMIT_TIMER, local)

    def on_timer(self, name: str) -> None:
        if name == self.ROUND_TIMER:
            self._round_timer_expired = True
            self._try_advance_round()
        elif name == self.RETRANSMIT_TIMER:
            self._on_retransmit()

    def _on_retransmit(self) -> None:
        if self.has_decided:
            self._broadcast_decision()
        else:
            # Periodic retransmission of the current round's StartRound: this
            # restores communication after stabilization even if everything
            # sent earlier was lost, and refreshes the majority-entry evidence.
            self._broadcast_start_round()
        self._arm_retransmit()

    # ------------------------------------------------------------------ messages
    def on_message(self, message: Message, sender: int) -> None:
        if isinstance(message, RoundDecision):
            self.decide_once(message.value)
            return
        if self.has_decided:
            self.ctx.send(RoundDecision(value=self.decided_value), sender)
            return

        message_round = round_of(message)
        if message_round > self.round:
            self._enter_round(message_round, via="jump")

        if isinstance(message, StartRound):
            self._on_start_round(message, sender)
        elif isinstance(message, Propose):
            self._on_propose(message)
        elif isinstance(message, Ack):
            self._on_ack(message, sender)

        self._try_advance_round()

    def _on_start_round(self, message: StartRound, sender: int) -> None:
        entries = self._round_entries[message.round]
        entries.setdefault(sender, (message.estimate, message.adopted_in))
        self._maybe_propose()

    def _maybe_propose(self) -> None:
        if not self.is_coordinator or self.round in self._proposed_rounds:
            return
        entries = self._round_entries.get(self.round, {})
        if len(entries) < self.quorum:
            return
        best_estimate = self.estimate
        best_round = self.adopted_in
        for estimate, adopted_in in entries.values():
            if adopted_in > best_round:
                best_round = adopted_in
                best_estimate = estimate
        self._proposed_rounds.add(self.round)
        self.ctx.emit("propose", round=self.round, value=best_estimate)
        self.ctx.broadcast(Propose(round=self.round, value=best_estimate))

    def _on_propose(self, message: Propose) -> None:
        if message.round != self.round or message.round in self._acked_rounds:
            return
        self.estimate = message.value
        self.adopted_in = message.round
        self._persist_state()
        self._acked_rounds.add(message.round)
        self.ctx.broadcast(Ack(round=message.round, value=message.value))

    def _on_ack(self, message: Ack, sender: int) -> None:
        self._acks.add(message.round, sender, message.value)
        if self._acks.reached(message.round):
            value = self._acks.quorum_value(message.round)
            if value is not None:
                self.decide_once(value)
                self._broadcast_decision()

    # ------------------------------------------------------------------ round changes
    def _try_advance_round(self) -> None:
        """Spontaneous advancement: timer expired and majority began this round."""
        if self.has_decided or not self._round_timer_expired:
            return
        if len(self._round_entries.get(self.round, {})) < self.quorum:
            return
        self._enter_round(self.round + 1, via="timeout")

    def _enter_round(self, round_number: int, via: str) -> None:
        self.round = round_number
        self._persist_state()
        self.ctx.emit("round_enter", round=round_number, via=via)
        # Old per-round state can be dropped; decisions from old rounds would
        # already have been taken.
        for old_round in [r for r in self._round_entries if r < round_number - 1]:
            del self._round_entries[old_round]
        self._broadcast_start_round()
        self._arm_round_timer()

    # ------------------------------------------------------------------ helpers
    def _broadcast_start_round(self) -> None:
        self.ctx.broadcast(
            StartRound(round=self.round, estimate=self.estimate, adopted_in=self.adopted_in)
        )

    def _broadcast_decision(self) -> None:
        self.ctx.broadcast(RoundDecision(value=self.decided_value), include_self=False)

    def _persist_state(self) -> None:
        self.persist(round=self.round, estimate=self.estimate, adopted_in=self.adopted_in)


class RotatingCoordinatorBuilder(ProtocolBuilder):
    """Builds rotating-coordinator processes (no oracle: timeouts drive rounds)."""

    name = "rotating-coordinator"

    def create(self, pid: int) -> RotatingCoordinatorProcess:
        return RotatingCoordinatorProcess()

    def invariant_checks(self):
        from repro.analysis.invariants import check_rotating_round_entry

        return {"round-entry-rule": check_rotating_round_entry}
