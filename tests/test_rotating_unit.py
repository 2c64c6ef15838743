"""Transition-level unit tests for the rotating-coordinator baseline."""

import pytest

from repro.consensus.roundbased.messages import Ack, Propose, RoundDecision, StartRound
from repro.consensus.roundbased.rotating import (
    RotatingCoordinatorBuilder,
    RotatingCoordinatorProcess,
)
from repro.core.timing import ROUND_TIMEOUT_FACTOR, rotating_coordinator_worst_case

from tests.helpers import ContextHarness, make_params


def start_process(pid=0, n=3, value="v0"):
    harness = ContextHarness(pid=pid, n=n, params=make_params())
    process = harness.start(RotatingCoordinatorProcess(), initial_value=value)
    return harness, process


class TestStartup:
    def test_starts_in_round_zero_and_broadcasts_start_round(self):
        harness, process = start_process(pid=1)
        assert process.round == 0
        starts = harness.sent_of_kind("start_round")
        assert len(starts) == 3
        assert starts[0].message.estimate == "v0"
        assert starts[0].message.adopted_in == -1

    def test_round_timer_armed_for_four_delta(self):
        harness, process = start_process()
        assert harness.timers[RotatingCoordinatorProcess.ROUND_TIMER] == pytest.approx(4.0)

    def test_retransmit_timer_armed_for_one_delta(self):
        harness, process = start_process()
        assert harness.timers[RotatingCoordinatorProcess.RETRANSMIT_TIMER] == pytest.approx(1.0)

    def test_round_timer_is_the_one_the_e3_model_charges(self):
        harness, process = start_process()
        params = harness.params
        per_crashed_coordinator = (
            rotating_coordinator_worst_case(params, 1) - rotating_coordinator_worst_case(params, 0)
        )
        assert per_crashed_coordinator == ROUND_TIMEOUT_FACTOR * params.delta
        armed = harness.timers[RotatingCoordinatorProcess.ROUND_TIMER]
        assert armed == pytest.approx(per_crashed_coordinator * (1.0 + params.rho))

    def test_coordinator_identity(self):
        _, process = start_process(pid=0, n=3)
        assert process.coordinator_of(0) == 0
        assert process.coordinator_of(4) == 1
        assert process.is_coordinator


class TestCoordinator:
    def test_proposes_after_majority_of_start_rounds(self):
        harness, process = start_process(pid=0, n=3)
        harness.clear_sent()
        harness.deliver(StartRound(round=0, estimate="a", adopted_in=-1), sender=1)
        assert harness.sent_of_kind("propose") == []
        harness.deliver(StartRound(round=0, estimate="b", adopted_in=-1), sender=2)
        proposals = harness.sent_of_kind("propose")
        assert len(proposals) == 3
        assert proposals[0].message.round == 0

    def test_proposes_estimate_with_highest_adopted_round(self):
        harness, process = start_process(pid=0, n=3, value="own")
        harness.deliver(StartRound(round=0, estimate="locked", adopted_in=5), sender=1)
        harness.deliver(StartRound(round=0, estimate="other", adopted_in=2), sender=2)
        proposals = harness.sent_of_kind("propose")
        assert proposals[-1].message.value == "locked"

    def test_proposes_only_once_per_round(self):
        harness, process = start_process(pid=0, n=3)
        for sender in (1, 2):
            harness.deliver(StartRound(round=0, estimate="x", adopted_in=-1), sender=sender)
        count = len(harness.sent_of_kind("propose"))
        harness.deliver(StartRound(round=0, estimate="y", adopted_in=-1), sender=1)
        assert len(harness.sent_of_kind("propose")) == count

    def test_non_coordinator_never_proposes(self):
        harness, process = start_process(pid=1, n=3)  # coordinator of round 0 is 0
        for sender in (0, 2):
            harness.deliver(StartRound(round=0, estimate="x", adopted_in=-1), sender=sender)
        assert harness.sent_of_kind("propose") == []


class TestAdoptionAndDecision:
    def test_proposal_adopted_and_acked(self):
        harness, process = start_process(pid=1, n=3)
        harness.clear_sent()
        harness.deliver(Propose(round=0, value="chosen"), sender=0)
        assert process.estimate == "chosen"
        assert process.adopted_in == 0
        acks = harness.sent_of_kind("ack")
        assert len(acks) == 3

    def test_proposal_for_old_round_ignored(self):
        harness, process = start_process(pid=1, n=3)
        harness.deliver(StartRound(round=3, estimate="x", adopted_in=-1), sender=2)  # jump to 3
        harness.clear_sent()
        harness.deliver(Propose(round=0, value="stale"), sender=0)
        assert harness.sent_of_kind("ack") == []
        assert process.adopted_in == -1

    def test_majority_of_acks_decides(self):
        harness, process = start_process(pid=2, n=3)
        harness.deliver(Ack(round=0, value="v"), sender=0)
        assert not process.has_decided
        harness.deliver(Ack(round=0, value="v"), sender=1)
        assert process.decided_value == "v"
        assert harness.sent_of_kind("round_decision")

    def test_decision_message_adopted_and_served(self):
        harness, process = start_process(pid=2, n=3)
        harness.deliver(RoundDecision(value="v"), sender=0)
        assert process.decided_value == "v"
        harness.clear_sent()
        harness.deliver(StartRound(round=9, estimate="x", adopted_in=-1), sender=1)
        assert [item.dst for item in harness.sent_of_kind("round_decision")] == [1]


class TestRoundChanges:
    def test_jump_to_higher_round_on_any_message(self):
        harness, process = start_process(pid=0, n=3)
        harness.clear_sent()
        harness.deliver(Ack(round=4, value="x"), sender=1)
        assert process.round == 4
        assert harness.sent_of_kind("start_round")

    def test_timeout_without_majority_evidence_does_not_advance(self):
        harness, process = start_process(pid=0, n=3)
        # Only our own StartRound(0) is known (delivered to self is not modelled here).
        harness.fire_timer(RotatingCoordinatorProcess.ROUND_TIMER)
        assert process.round == 0

    def test_timeout_with_majority_evidence_advances(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(StartRound(round=0, estimate="a", adopted_in=-1), sender=1)
        harness.deliver(StartRound(round=0, estimate="b", adopted_in=-1), sender=2)
        harness.clear_sent()
        harness.fire_timer(RotatingCoordinatorProcess.ROUND_TIMER)
        assert process.round == 1
        assert harness.sent_of_kind("start_round")
        assert "round" in harness.timers  # re-armed

    def test_round_and_estimate_persisted_across_restart(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(StartRound(round=2, estimate="x", adopted_in=-1), sender=1)  # jump
        harness.deliver(Propose(round=2, value="locked"), sender=2)
        restarted = harness.restart(RotatingCoordinatorProcess(), initial_value="v0")
        assert restarted.round == 2
        assert restarted.estimate == "locked"
        assert restarted.adopted_in == 2

    def test_retransmit_timer_rebroadcasts_current_round(self):
        harness, process = start_process(pid=0, n=3)
        harness.clear_sent()
        harness.fire_timer(RotatingCoordinatorProcess.RETRANSMIT_TIMER)
        starts = harness.sent_of_kind("start_round")
        assert len(starts) == 3
        assert starts[0].message.round == process.round
        assert RotatingCoordinatorProcess.RETRANSMIT_TIMER in harness.timers


class TestBuilder:
    def test_builder_creates_processes(self):
        builder = RotatingCoordinatorBuilder()
        process = builder.create(0)
        assert isinstance(process, RotatingCoordinatorProcess)
        assert "round-entry-rule" in builder.invariant_checks()
