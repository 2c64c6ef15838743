"""Transition-level unit tests for the B-Consensus family."""

import pytest

from repro.consensus.bconsensus.messages import ABSTAIN, BDecision, FirstPayload, Vote
from repro.consensus.bconsensus.modified import (
    ModifiedBConsensusBuilder,
    ModifiedBConsensusProcess,
)
from repro.consensus.bconsensus.original import BConsensusBuilder, BConsensusProcess
from repro.oracle.lamport import LogicalTimestamp
from repro.oracle.wab import WabMessage

from tests.helpers import ContextHarness, make_params


def start_process(cls=ModifiedBConsensusProcess, pid=0, n=3, value="v0"):
    harness = ContextHarness(pid=pid, n=n, params=make_params())
    process = harness.start(cls(), initial_value=value)
    return harness, process


def wab_deliver(harness, process, round_number, value, origin, counter):
    """Short-circuit the oracle hold-back: receive then immediately release."""
    message = WabMessage(
        timestamp=LogicalTimestamp(counter, origin),
        origin=origin,
        payload=FirstPayload(round=round_number, value=value),
    )
    harness.deliver(message, sender=origin)
    harness.advance_local_time(10.0)
    for name in [name for name in list(harness.timers) if process.wab.handles_timer(name)]:
        harness.fire_timer(name)


class TestStartup:
    def test_start_broadcasts_first_through_oracle(self):
        harness, process = start_process()
        wab_messages = harness.sent_of_kind("wab")
        assert len(wab_messages) == 3
        payload = wab_messages[0].message.payload
        assert payload == FirstPayload(round=0, value="v0")
        assert process.round == 0

    def test_retransmit_timer_armed(self):
        harness, process = start_process()
        assert process.RETRANSMIT_TIMER in harness.timers

    @pytest.mark.parametrize("cls", [BConsensusProcess, ModifiedBConsensusProcess])
    def test_retransmits_every_epsilon_and_holds_back_two_delta(self, cls):
        harness = ContextHarness(pid=0, n=3, params=make_params(rho=0.01))
        process = harness.start(cls(), initial_value="v0")
        params = harness.params
        assert harness.timers[process.RETRANSMIT_TIMER] == params.epsilon * (1.0 + params.rho)
        assert process.wab.hold_local == 2.0 * params.delta * (1.0 + params.rho)


class TestStageOne:
    def test_unanimous_sample_votes_for_value(self):
        harness, process = start_process(n=3)
        harness.clear_sent()
        wab_deliver(harness, process, 0, "v", origin=1, counter=1)
        assert harness.sent_of_kind("bvote") == []
        wab_deliver(harness, process, 0, "v", origin=2, counter=2)
        votes = harness.sent_of_kind("bvote")
        assert votes and votes[0].message.vote == "v"

    def test_mixed_sample_abstains(self):
        harness, process = start_process(n=3)
        wab_deliver(harness, process, 0, "a", origin=1, counter=1)
        wab_deliver(harness, process, 0, "b", origin=2, counter=2)
        votes = harness.sent_of_kind("bvote")
        assert votes and votes[0].message.vote == ABSTAIN

    def test_votes_only_once_per_round(self):
        harness, process = start_process(n=3)
        wab_deliver(harness, process, 0, "v", origin=1, counter=1)
        wab_deliver(harness, process, 0, "v", origin=2, counter=2)
        count = len(harness.sent_of_kind("bvote"))
        wab_deliver(harness, process, 0, "v", origin=1, counter=5)
        assert len(harness.sent_of_kind("bvote")) == count


class TestStageTwo:
    def test_unanimous_votes_decide(self):
        harness, process = start_process(n=3)
        harness.deliver(Vote(round=0, vote="v"), sender=1)
        harness.deliver(Vote(round=0, vote="v"), sender=2)
        assert process.decided_value == "v"
        assert harness.sent_of_kind("bdecision")

    def test_mixed_votes_adopt_concrete_value_and_advance(self):
        harness, process = start_process(n=3, value="own")
        harness.deliver(Vote(round=0, vote=ABSTAIN), sender=1)
        harness.deliver(Vote(round=0, vote="w"), sender=2)
        assert not process.has_decided
        assert process.estimate == "w"
        assert process.round == 1

    def test_all_abstain_adopts_first_delivered_candidate(self):
        harness, process = start_process(n=3, value="own")
        wab_deliver(harness, process, 0, "x", origin=1, counter=1)
        wab_deliver(harness, process, 0, "y", origin=2, counter=2)
        # Own vote is ABSTAIN; add another abstain to finish the round.
        harness.deliver(Vote(round=0, vote=ABSTAIN), sender=1)
        assert process.round == 1
        assert process.estimate == "x"  # first w-delivered value of round 0

    def test_round_and_estimate_persisted(self):
        harness, process = start_process(n=3)
        harness.deliver(Vote(round=0, vote=ABSTAIN), sender=1)
        harness.deliver(Vote(round=0, vote="w"), sender=2)
        restarted = harness.restart(ModifiedBConsensusProcess(), initial_value="v0")
        assert restarted.round == 1
        assert restarted.estimate == "w"


class TestJumpingAndRetransmission:
    def test_modified_jumps_on_higher_round_vote(self):
        harness, process = start_process(ModifiedBConsensusProcess, n=3)
        harness.clear_sent()
        harness.deliver(Vote(round=5, vote="v"), sender=1)
        assert process.round == 5
        assert harness.sent_of_kind("wab")  # re-broadcast First for the new round

    def test_original_does_not_jump(self):
        harness, process = start_process(BConsensusProcess, n=3)
        harness.deliver(Vote(round=5, vote="v"), sender=1)
        assert process.round == 0

    def test_modified_retransmits_only_current_round(self):
        harness, process = start_process(ModifiedBConsensusProcess, n=3)
        harness.deliver(Vote(round=2, vote="v"), sender=1)  # jump to round 2
        harness.clear_sent()
        harness.fire_timer(process.RETRANSMIT_TIMER)
        rounds = {item.message.payload.round for item in harness.sent_of_kind("wab")}
        assert rounds == {2}

    def test_original_retransmits_all_rounds(self):
        harness, process = start_process(BConsensusProcess, n=3)
        # Finish round 0 with mixed votes so the process moves to round 1.
        harness.deliver(Vote(round=0, vote="w"), sender=1)
        harness.deliver(Vote(round=0, vote=ABSTAIN), sender=2)
        assert process.round == 1
        harness.clear_sent()
        harness.fire_timer(process.RETRANSMIT_TIMER)
        rounds = {item.message.payload.round for item in harness.sent_of_kind("wab")}
        assert rounds == {0, 1}

    def test_decided_process_retransmits_decision(self):
        harness, process = start_process(ModifiedBConsensusProcess, n=3)
        harness.deliver(BDecision(value="v"), sender=1)
        harness.clear_sent()
        harness.fire_timer(process.RETRANSMIT_TIMER)
        assert harness.sent_of_kind("bdecision")
        assert harness.sent_of_kind("wab") == []


class TestDecisionService:
    def test_decision_message_adopted_and_served(self):
        harness, process = start_process(n=3)
        harness.deliver(BDecision(value="v"), sender=2)
        assert process.decided_value == "v"
        harness.clear_sent()
        harness.deliver(Vote(round=0, vote="x"), sender=1)
        assert [item.dst for item in harness.sent_of_kind("bdecision")] == [1]


class TestBuilders:
    def test_builders_create_expected_types(self):
        assert isinstance(ModifiedBConsensusBuilder().create(0), ModifiedBConsensusProcess)
        assert isinstance(BConsensusBuilder().create(0), BConsensusProcess)
        original = BConsensusBuilder().create(0)
        modified = ModifiedBConsensusBuilder().create(0)
        assert original.retransmit_all_rounds and not original.allow_jump
        assert modified.allow_jump and not modified.retransmit_all_rounds
