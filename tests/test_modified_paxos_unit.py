"""Transition-level unit tests for Modified Paxos (`repro.core.modified_paxos`).

Each test drives a single process through the relevant rule of Section 4
using the :class:`tests.helpers.ContextHarness`, without a simulator.  The
session rules of :class:`repro.core.sessions.SessionProcess` are tested for
both Modified Paxos variants in ``tests/test_sessions.py``.
"""

import pytest

from repro.core.messages import Decision, Phase1a, Phase1b, Phase2a, Phase2b
from repro.core.modified_paxos import ModifiedPaxosBuilder, ModifiedPaxosProcess

from tests.helpers import ContextHarness, make_params


def start_process(pid=0, n=3, value="v0", params=None):
    harness = ContextHarness(pid=pid, n=n, params=params or make_params())
    process = harness.start(ModifiedPaxosProcess(), initial_value=value)
    return harness, process


class TestStartup:
    def test_initial_ballot_is_pid_and_session_zero(self):
        _, process = start_process(pid=2, n=5)
        assert process.mbal == 2
        assert process.session == 0

    def test_start_broadcasts_phase1a_and_arms_timers(self):
        harness, _ = start_process(pid=1, n=3)
        assert sorted(harness.destinations_of_kind("phase1a")) == [0, 1, 2]
        assert "session" in harness.timers
        assert "keepalive" in harness.timers

    def test_session_timer_duration_is_at_least_four_delta(self):
        params = make_params(rho=0.05)
        harness, _ = start_process(params=params)
        assert harness.timers["session"] == pytest.approx(4.0 * 1.05)

    def test_restart_recovers_ballot_from_stable_storage(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(Phase1a(mbal=7), sender=1)
        assert process.mbal == 7
        restarted = harness.restart(ModifiedPaxosProcess(), initial_value="v0")
        assert restarted.mbal == 7

    def test_restart_after_decision_reannounces_it(self):
        harness, process = start_process(pid=0, n=3)
        process.decide_once("chosen")
        restarted = harness.restart(ModifiedPaxosProcess(), initial_value="v0")
        assert restarted.decided_value == "chosen"
        assert harness.decisions[-1] == "chosen"
        assert harness.sent_of_kind("decision")


class TestPhase1:
    def test_higher_phase1a_adopts_ballot_and_promises_to_owner(self):
        harness, process = start_process(pid=0, n=3)
        harness.clear_sent()
        harness.deliver(Phase1a(mbal=7), sender=1)  # ballot 7 owned by 7 % 3 == 1
        assert process.mbal == 7
        promises = harness.sent_of_kind("phase1b")
        assert [item.dst for item in promises] == [1]
        assert promises[0].message.mbal == 7

    def test_equal_phase1a_still_answered(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(Phase1a(mbal=6), sender=0)
        harness.clear_sent()
        harness.deliver(Phase1a(mbal=6), sender=2)
        assert harness.sent_of_kind("phase1b")

    def test_lower_phase1a_ignored_without_reject(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(Phase1a(mbal=8), sender=2)
        harness.clear_sent()
        harness.deliver(Phase1a(mbal=4), sender=1)
        assert harness.sent == []  # no promise, and no "rejected" message exists

    def test_same_session_ballot_increase_does_not_rebroadcast(self):
        harness, process = start_process(pid=0, n=5)
        harness.clear_sent()
        harness.deliver(Phase1a(mbal=3), sender=3)  # still session 0
        assert harness.sent_of_kind("phase1a") == []


class TestPhase2:
    def _gather_promises(self, harness, process, ballot):
        for sender in range(harness.n):
            harness.deliver(
                Phase1b(mbal=ballot, voted_bal=-1, voted_val=None), sender=sender
            )

    def test_quorum_of_promises_triggers_phase2a_with_own_proposal(self):
        harness, process = start_process(pid=0, n=3, value="mine")
        ballot = 0  # owned by pid 0, current from the start
        harness.clear_sent()
        self._gather_promises(harness, process, ballot)
        proposals = harness.sent_of_kind("phase2a")
        assert len(proposals) == 3  # broadcast to everyone, once
        assert proposals[0].message.value == "mine"

    def test_phase2a_carries_highest_previous_vote(self):
        harness, process = start_process(pid=0, n=3, value="mine")
        harness.clear_sent()
        harness.deliver(Phase1b(mbal=0, voted_bal=-1, voted_val=None), sender=0)
        harness.deliver(Phase1b(mbal=0, voted_bal=2, voted_val="theirs"), sender=1)
        proposals = harness.sent_of_kind("phase2a")
        assert proposals and proposals[0].message.value == "theirs"

    def test_promises_for_foreign_ballot_ignored(self):
        harness, process = start_process(pid=0, n=3)
        harness.clear_sent()
        for sender in range(3):
            harness.deliver(Phase1b(mbal=4, voted_bal=-1, voted_val=None), sender=sender)
        assert harness.sent_of_kind("phase2a") == []  # ballot 4 is owned by pid 1

    def test_phase2a_accepted_and_phase2b_broadcast(self):
        harness, process = start_process(pid=0, n=3)
        harness.clear_sent()
        harness.deliver(Phase2a(mbal=7, value="x"), sender=1)
        assert process.abal == 7 and process.aval == "x"
        acks = harness.sent_of_kind("phase2b")
        assert len(acks) == 3
        assert acks[0].message.value == "x"

    def test_stale_phase2a_rejected_silently(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(Phase1a(mbal=9), sender=1)
        harness.clear_sent()
        harness.deliver(Phase2a(mbal=4, value="x"), sender=2)
        assert harness.sent_of_kind("phase2b") == []
        assert process.abal == -1

    def test_majority_of_phase2b_decides_and_announces(self):
        harness, process = start_process(pid=0, n=3)
        harness.clear_sent()
        harness.deliver(Phase2b(mbal=5, value="agreed"), sender=1)
        assert not process.has_decided
        harness.deliver(Phase2b(mbal=5, value="agreed"), sender=2)
        assert process.has_decided
        assert process.decided_value == "agreed"
        assert harness.decisions == ["agreed"]
        assert harness.sent_of_kind("decision")

    def test_phase2b_for_different_ballots_do_not_mix(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(Phase2b(mbal=5, value="a"), sender=1)
        harness.deliver(Phase2b(mbal=8, value="a"), sender=2)
        assert not process.has_decided


class TestKeepAlive:
    def test_keepalive_after_decision_rebroadcasts_decision(self):
        harness, process = start_process(pid=0, n=3)
        process.decide_once("v")
        harness.clear_sent()
        harness.fire_timer("keepalive")
        assert harness.sent_of_kind("decision")
        assert harness.sent_of_kind("phase1a") == []


class TestDecisionHandling:
    def test_decision_message_adopted(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(Decision(value="theirs"), sender=2)
        assert process.decided_value == "theirs"

    def test_decided_process_answers_with_decision(self):
        harness, process = start_process(pid=0, n=3)
        harness.deliver(Decision(value="theirs"), sender=2)
        harness.clear_sent()
        harness.deliver(Phase1a(mbal=50), sender=1)
        replies = harness.sent_of_kind("decision")
        assert [item.dst for item in replies] == [1]
        assert process.mbal < 50  # the algorithm has stopped; no ballot adoption


class TestBuilder:
    def test_builder_creates_processes_and_invariants(self):
        builder = ModifiedPaxosBuilder()
        assert isinstance(builder.create(0), ModifiedPaxosProcess)
        assert "session-entry-rule" in builder.invariant_checks()
