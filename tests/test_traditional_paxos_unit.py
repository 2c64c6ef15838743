"""Transition-level unit tests for traditional Ω-driven Paxos."""

from dataclasses import dataclass, field
from typing import Dict

import pytest

from repro.consensus.paxos.traditional import TraditionalPaxosBuilder, TraditionalPaxosProcess
from repro.core.messages import Decision, Phase1a, Phase1b, Phase2a, Phase2b, Rejected
from repro.errors import ConfigurationError

from tests.helpers import ContextHarness, make_params


@dataclass
class FakeOmega:
    """Scriptable Ω oracle for unit tests."""

    leaders: Dict[int, int] = field(default_factory=dict)
    default_self: bool = True

    def leader(self, pid: int) -> int:
        if pid in self.leaders:
            return self.leaders[pid]
        return pid if self.default_self else -1

    def believes_self_leader(self, pid: int) -> bool:
        return self.leader(pid) == pid


def start_process(pid=0, n=3, value="v0", leader=True):
    oracle = FakeOmega(leaders={pid: pid if leader else (pid + 1) % n})
    harness = ContextHarness(pid=pid, n=n, params=make_params())
    process = harness.start(TraditionalPaxosProcess(oracle=oracle), initial_value=value)
    return harness, process, oracle


class TestLeaderBehaviour:
    def test_leader_starts_phase1_at_startup(self):
        harness, process, _ = start_process(leader=True)
        prepares = harness.sent_of_kind("phase1a")
        assert len(prepares) == 3
        assert prepares[0].message.mbal % 3 == 0  # ballots owned by pid 0

    def test_non_leader_stays_quiet(self):
        harness, _, _ = start_process(leader=False)
        assert harness.sent_of_kind("phase1a") == []

    def test_pulse_timer_armed_for_two_delta(self):
        harness, process, _ = start_process(leader=True)
        assert process.retry_interval == 2.0 * harness.params.delta
        assert harness.timers[TraditionalPaxosProcess.LEADER_PULSE_TIMER] == pytest.approx(
            process.retry_interval * (1.0 + harness.params.rho)
        )

    def test_pulse_retries_with_new_ballot_after_interval(self):
        harness, process, _ = start_process(leader=True)
        first_ballot = process.proposer.current_ballot()
        harness.advance_local_time(3.0)  # beyond retry interval of 2 delta
        harness.clear_sent()
        harness.fire_timer(TraditionalPaxosProcess.LEADER_PULSE_TIMER)
        assert process.proposer.current_ballot() > first_ballot
        assert harness.sent_of_kind("phase1a")

    def test_pulse_does_not_interrupt_fresh_attempt(self):
        harness, process, _ = start_process(leader=True)
        first_ballot = process.proposer.current_ballot()
        harness.advance_local_time(0.5)  # attempt is still young
        harness.clear_sent()
        harness.fire_timer(TraditionalPaxosProcess.LEADER_PULSE_TIMER)
        assert process.proposer.current_ballot() == first_ballot
        assert harness.sent_of_kind("phase1a") == []


class TestAcceptorSide:
    def test_promise_and_reject(self):
        harness, process, _ = start_process(pid=1, n=3, leader=False)
        harness.deliver(Phase1a(mbal=9), sender=0)  # 9 % 3 == 0
        promises = harness.sent_of_kind("phase1b")
        assert [item.dst for item in promises] == [0]
        harness.clear_sent()
        harness.deliver(Phase1a(mbal=3), sender=0)
        rejects = harness.sent_of_kind("rejected")
        assert [item.dst for item in rejects] == [0]
        assert rejects[0].message.mbal == 9

    def test_accept_broadcasts_phase2b(self):
        harness, process, _ = start_process(pid=1, n=3, leader=False)
        harness.deliver(Phase2a(mbal=6, value="x"), sender=0)
        acks = harness.sent_of_kind("phase2b")
        assert len(acks) == 3
        assert process.acceptor.last_vote == (6, "x")

    def test_low_phase2a_rejected(self):
        harness, process, _ = start_process(pid=1, n=3, leader=False)
        harness.deliver(Phase1a(mbal=9), sender=0)
        harness.clear_sent()
        harness.deliver(Phase2a(mbal=6, value="x"), sender=0)
        assert harness.sent_of_kind("phase2b") == []
        assert harness.sent_of_kind("rejected")

    def test_acceptor_state_persisted_across_restart(self):
        harness, process, oracle = start_process(pid=1, n=3, leader=False)
        harness.deliver(Phase2a(mbal=6, value="x"), sender=0)
        restarted = harness.restart(
            TraditionalPaxosProcess(oracle=FakeOmega(default_self=False)), initial_value="v0"
        )
        assert restarted.acceptor.last_vote == (6, "x")
        assert restarted.acceptor.mbal == 6


class TestProposerSide:
    def test_promise_quorum_sends_phase2a(self):
        harness, process, _ = start_process(pid=0, n=3, leader=True, value="mine")
        ballot = process.proposer.current_ballot()
        harness.clear_sent()
        harness.deliver(Phase1b(mbal=ballot, voted_bal=-1, voted_val=None), sender=1)
        harness.deliver(Phase1b(mbal=ballot, voted_bal=-1, voted_val=None), sender=2)
        proposals = harness.sent_of_kind("phase2a")
        assert len(proposals) == 3
        assert proposals[0].message.value == "mine"

    def test_previous_vote_overrides_own_proposal(self):
        harness, process, _ = start_process(pid=0, n=3, leader=True, value="mine")
        ballot = process.proposer.current_ballot()
        harness.deliver(Phase1b(mbal=ballot, voted_bal=2, voted_val="locked"), sender=1)
        harness.deliver(Phase1b(mbal=ballot, voted_bal=-1, voted_val=None), sender=2)
        proposals = harness.sent_of_kind("phase2a")
        assert proposals[-1].message.value == "locked"

    def test_rejection_triggers_immediate_higher_ballot(self):
        harness, process, _ = start_process(pid=0, n=3, leader=True)
        old_ballot = process.proposer.current_ballot()
        harness.clear_sent()
        harness.deliver(Rejected(mbal=old_ballot + 50), sender=2)
        new_ballot = process.proposer.current_ballot()
        assert new_ballot > old_ballot + 50
        assert harness.sent_of_kind("phase1a")

    def test_stale_rejection_ignored(self):
        harness, process, _ = start_process(pid=0, n=3, leader=True)
        ballot = process.proposer.current_ballot()
        harness.clear_sent()
        harness.deliver(Rejected(mbal=ballot - 1), sender=2)
        assert process.proposer.current_ballot() == ballot
        assert harness.sent_of_kind("phase1a") == []

    def test_phase2b_quorum_decides(self):
        harness, process, _ = start_process(pid=0, n=3, leader=True)
        harness.deliver(Phase2b(mbal=3, value="agreed"), sender=1)
        harness.deliver(Phase2b(mbal=3, value="agreed"), sender=2)
        assert process.decided_value == "agreed"
        assert harness.sent_of_kind("decision")

    def test_decided_process_answers_with_decision(self):
        harness, process, _ = start_process(pid=0, n=3, leader=True)
        harness.deliver(Decision(value="agreed"), sender=1)
        harness.clear_sent()
        harness.deliver(Phase1a(mbal=99), sender=2)
        assert [item.dst for item in harness.sent_of_kind("decision")] == [2]


class TestBuilder:
    def test_create_requires_attach(self):
        builder = TraditionalPaxosBuilder()
        with pytest.raises(ConfigurationError):
            builder.create(0)
