"""Shared round machinery of the B-Consensus family.

One round ``r`` has two stages:

* **Stage 1 (oracle).**  Every process w-broadcasts ``First(r, estimate)``
  through the weak ordering oracle and collects w-delivered ``First(r, ·)``
  messages.  Once it holds them from a majority of distinct origins it forms
  its stage-2 vote: the common value ``v`` if its sample is unanimous,
  :data:`~repro.consensus.bconsensus.messages.ABSTAIN` otherwise (in which
  case the first w-delivered value of the round is remembered as the
  *candidate* to adopt).

* **Stage 2 (voting).**  The vote is broadcast over plain channels.  Once a
  process holds stage-2 votes of round ``r`` from a majority it finishes the
  round: if every vote it holds is the same non-abstain value ``v`` it
  decides ``v``; otherwise it adopts any non-abstain vote it saw, or its
  candidate, as its new estimate and enters round ``r + 1``.

Safety of the rule (the reason this reconstruction is sound):

* Two different non-abstain votes cannot exist in the same round — each
  requires a unanimous majority sample of ``First(r, ·)`` values, any two
  majorities intersect, and a process w-broadcasts a single ``First`` value
  per round.
* If some process decides ``v`` in round ``r``, every majority of stage-2
  votes contains at least one ``v`` (intersection) and, by the point above,
  no conflicting non-abstain vote; hence every process finishing round ``r``
  adopts ``v`` and only ``v`` can ever be proposed or decided later.

Liveness after stabilization comes from the oracle: once all ``First``
messages of a round are sent after ``TS``, the ``2δ`` hold-back delivers
them to every process in the same (timestamp) order, so every process sees
the same majority sample; if estimates were still mixed, everyone adopts the
same candidate, and the *next* round's samples are unanimous and decide.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from repro.consensus.base import ConsensusProcess
from repro.consensus.bconsensus.messages import ABSTAIN, BDecision, FirstPayload, Vote
from repro.net.message import Message
from repro.oracle.lamport import LogicalTimestamp
from repro.oracle.wab import WabEndpoint, WabMessage

__all__ = ["BConsensusCore"]


class BConsensusCore(ConsensusProcess):
    """Common implementation; subclasses choose jumping and retransmission.

    Args:
        allow_jump: Whether receiving a higher-round message moves the
            process straight to that round (the Section 5 modification).
        retransmit_all_rounds: Whether the periodic retransmission re-sends
            the messages of *all* rounds up to the current one (the original
            algorithm's requirement) or only the current round's.

    Retransmission runs every ``ε``; the oracle holds messages back its
    default ``2δ``, as in the paper's construction.
    """

    RETRANSMIT_TIMER = "b-retransmit"

    def __init__(self, allow_jump: bool, retransmit_all_rounds: bool) -> None:
        super().__init__()
        self.allow_jump = allow_jump
        self.retransmit_all_rounds = retransmit_all_rounds

    # ------------------------------------------------------------------ lifecycle
    def on_start(self) -> None:
        self.wab = WabEndpoint(self.ctx, deliver=self._on_wab_deliver)
        # round -> origin -> value, in arrival (delivery) order per round.
        self._first_values: Dict[int, Dict[int, Any]] = defaultdict(dict)
        self._first_order: Dict[int, List[Any]] = defaultdict(list)
        # round -> sender -> vote
        self._votes: Dict[int, Dict[int, Any]] = defaultdict(dict)
        self._voted_rounds: set[int] = set()
        self._finished_rounds: set[int] = set()

        if self.recover_decision():
            self._broadcast_decision()
            self._arm_retransmit()
            return

        self.round: int = self.recall("round", 0)
        self.estimate: Any = self.recall("estimate", self.proposal())

        self.ctx.emit("round_enter", round=self.round, via="start")
        self._broadcast_first(self.round)
        self._arm_retransmit()

    # ------------------------------------------------------------------ timers
    def _arm_retransmit(self) -> None:
        local = self.epsilon * (1.0 + self.rho)
        self.ctx.set_timer(self.RETRANSMIT_TIMER, local)

    def on_timer(self, name: str) -> None:
        if self.wab.handles_timer(name):
            self.wab.on_timer(name)
            return
        if name != self.RETRANSMIT_TIMER:
            return
        self._on_retransmit()
        self._arm_retransmit()

    def _on_retransmit(self) -> None:
        if self.has_decided:
            self._broadcast_decision()
            return
        rounds = range(self.round + 1) if self.retransmit_all_rounds else [self.round]
        for round_number in rounds:
            self._broadcast_first(round_number)
            if round_number in self._voted_rounds:
                own_vote = self._votes[round_number].get(self.pid)
                if own_vote is not None:
                    self.ctx.broadcast(Vote(round=round_number, vote=own_vote))

    # ------------------------------------------------------------------ messages
    def on_message(self, message: Message, sender: int) -> None:
        if isinstance(message, BDecision):
            self.decide_once(message.value)
            return
        if self.has_decided:
            self.ctx.send(BDecision(value=self.decided_value), sender)
            return
        if isinstance(message, WabMessage):
            self.wab.on_receive(message)
            return
        if isinstance(message, Vote):
            self._on_vote(message, sender)

    def _on_wab_deliver(self, payload: Any, origin: int, timestamp: LogicalTimestamp) -> None:
        if self.has_decided or not isinstance(payload, FirstPayload):
            return
        round_number = payload.round
        if self.allow_jump and round_number > self.round:
            self._enter_round(round_number, via="jump-first")
        values = self._first_values[round_number]
        if origin not in values:
            values[origin] = payload.value
            self._first_order[round_number].append(payload.value)
        self._maybe_vote(round_number)

    def _on_vote(self, message: Vote, sender: int) -> None:
        if self.allow_jump and message.round > self.round:
            self._enter_round(message.round, via="jump-vote")
        self._votes[message.round].setdefault(sender, message.vote)
        self._maybe_finish_round(message.round)

    # ------------------------------------------------------------------ stage 1
    def _maybe_vote(self, round_number: int) -> None:
        if round_number != self.round or round_number in self._voted_rounds:
            return
        values = self._first_values[round_number]
        if len(values) < self.quorum:
            return
        sample = list(values.values())
        unanimous = all(value == sample[0] for value in sample)
        vote = sample[0] if unanimous else ABSTAIN
        self._voted_rounds.add(round_number)
        self._votes[round_number].setdefault(self.pid, vote)
        self.ctx.emit("bvote", round=round_number, vote=vote)
        self.ctx.broadcast(Vote(round=round_number, vote=vote), include_self=False)
        self._maybe_finish_round(round_number)

    # ------------------------------------------------------------------ stage 2
    def _maybe_finish_round(self, round_number: int) -> None:
        if round_number != self.round or round_number in self._finished_rounds:
            return
        votes = self._votes[round_number]
        if len(votes) < self.quorum:
            return
        self._finished_rounds.add(round_number)
        concrete = [vote for vote in votes.values() if vote != ABSTAIN]
        all_same_value = concrete and all(vote == concrete[0] for vote in concrete)
        if all_same_value and len(concrete) == len(votes):
            # Every vote in a majority sample is the same non-abstain value.
            self.decide_once(concrete[0])
            self._broadcast_decision()
            return
        if concrete:
            self.estimate = concrete[0]
        elif self._first_order[round_number]:
            self.estimate = self._first_order[round_number][0]
        self._persist_state()
        self._enter_round(round_number + 1, via="complete")

    # ------------------------------------------------------------------ round changes
    def _enter_round(self, round_number: int, via: str) -> None:
        if round_number <= self.round:
            return
        self.round = round_number
        self._persist_state()
        self.ctx.emit("round_enter", round=round_number, via=via)
        self._broadcast_first(round_number)
        # Progress may already be possible from buffered messages.
        self._maybe_vote(round_number)
        self._maybe_finish_round(round_number)

    # ------------------------------------------------------------------ helpers
    def _broadcast_first(self, round_number: int) -> None:
        self.wab.broadcast(FirstPayload(round=round_number, value=self.estimate))

    def _broadcast_decision(self) -> None:
        self.ctx.broadcast(BDecision(value=self.decided_value), include_self=False)

    def _persist_state(self) -> None:
        self.persist(round=self.round, estimate=self.estimate)
