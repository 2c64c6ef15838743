"""Transition-level unit tests for the multi-decree SMR protocol."""

import pytest

from repro.core.sessions import ballot_for
from repro.errors import ProtocolError
from repro.smr.messages import (
    CommandRequest,
    MultiPhase1a,
    MultiPhase1b,
    MultiPhase2a,
    MultiPhase2b,
    SlotDecision,
)
from repro.smr.multi_paxos import MultiPaxosSmrBuilder, MultiPaxosSmrProcess
from repro.smr.workload import ScheduleSpec
from repro.workloads.stable import stable_scenario

from tests.helpers import ContextHarness, make_params


def start_replica(pid=0, n=3, schedule=None):
    harness = ContextHarness(pid=pid, n=n, params=make_params())
    process = harness.start(MultiPaxosSmrProcess(schedule=schedule), initial_value=f"v{pid}")
    return harness, process


def make_promise(mbal, votes=(), decided=()):
    return MultiPhase1b(mbal=mbal, votes=tuple(votes), decided=tuple(decided))


def establish(harness, process):
    """Drive the replica's own ballot through phase 1 (quorum of empty promises)."""
    ballot = process.mbal
    for sender in range(harness.n):
        harness.deliver(make_promise(ballot), sender=sender)
    assert process.is_established_leader
    return ballot


class TestStartupAndPhase1:
    def test_start_broadcasts_phase1a_and_arms_timers(self):
        harness, process = start_replica(pid=1)
        assert len(harness.sent_of_kind("mphase1a")) == 3
        assert "session" in harness.timers and "keepalive" in harness.timers
        assert process.mbal == 1 and process.session == 0

    def test_promise_carries_votes_and_decided_entries(self):
        harness, process = start_replica(pid=0, n=3)
        process.accepted[4] = (2, ("cmd-x", ("set", "k", 1)))
        process.log.learn(0, ("cmd-0", ("set", "a", 1)))
        harness.clear_sent()
        harness.deliver(MultiPhase1a(mbal=7), sender=1)
        replies = harness.sent_of_kind("mphase1b")
        assert [item.dst for item in replies] == [1]
        message = replies[0].message
        assert message.votes_dict() == {4: (2, ("cmd-x", ("set", "k", 1)))}
        assert message.decided == ((0, ("cmd-0", ("set", "a", 1))),)
        assert message.prefix == 1

    def test_establishment_requires_quorum(self):
        harness, process = start_replica(pid=0, n=5)
        harness.deliver(make_promise(process.mbal), sender=1)
        harness.deliver(make_promise(process.mbal), sender=2)
        assert not process.is_established_leader
        harness.deliver(make_promise(process.mbal), sender=3)
        assert process.is_established_leader
        assert harness.emitted_events("leader_established")

    def test_establishment_reproposes_votes_and_fills_gaps_with_noops(self):
        harness, process = start_replica(pid=0, n=3)
        harness.clear_sent()
        harness.deliver(make_promise(process.mbal, votes=[(2, (1, ("cmd-a", ("set", "x", 1))))]), sender=1)
        harness.deliver(make_promise(process.mbal), sender=2)
        proposals = {item.message.slot: item.message.value for item in harness.sent_of_kind("mphase2a")}
        assert proposals[2] == ("cmd-a", ("set", "x", 1))
        # Slots 0 and 1 had no votes: filled with no-ops so the prefix closes.
        assert proposals[0][1] == ("noop",)
        assert proposals[1][1] == ("noop",)

    def test_decided_entries_in_promises_are_learned_by_anyone(self):
        harness, process = start_replica(pid=2, n=3)  # not the owner of ballot 0
        harness.deliver(make_promise(0, decided=[(0, ("cmd-0", ("set", "a", 1)))]), sender=1)
        assert process.log.snapshot().get(0) == ("cmd-0", ("set", "a", 1))


def command(slot):
    return (f"cmd-{slot}", ("set", "k", slot))


class TestPhase1LogExchange:
    def test_promise_votes_skip_decided_slots_in_slot_order(self):
        harness, process = start_replica(pid=0, n=3)
        for slot in (5, 1, 3):
            harness.deliver(MultiPhase2a(mbal=2, slot=slot, value=command(slot)), sender=2)
        harness.deliver(SlotDecision(slot=3, value=command(3)), sender=1)
        assert sorted(process.accepted) == [1, 5]
        harness.clear_sent()
        harness.deliver(MultiPhase1a(mbal=7), sender=1)
        message = harness.sent_of_kind("mphase1b")[0].message
        assert message.votes == ((1, (2, command(1))), (5, (2, command(5))))
        assert message.decided == ((3, command(3)),)

    def test_promise_learns_only_missing_entries_in_slot_order(self):
        harness, process = start_replica(pid=2, n=3)
        process.log.learn(1, command(1))
        harness.deliver(make_promise(0, decided=[(slot, command(slot)) for slot in (0, 1, 4)]),
                        sender=1)
        assert [f["slot"] for f in harness.emitted_events("slot_decide")] == [0, 4]
        assert process.log.snapshot() == {slot: command(slot) for slot in (0, 1, 4)}

    def test_conflicting_decided_entry_in_a_promise_raises(self):
        harness, process = start_replica(pid=2, n=3)
        process.log.learn(0, command(0))
        conflicting = ("other", ("set", "k", 99))
        with pytest.raises(ProtocolError, match="slot 0 already decided"):
            harness.deliver(make_promise(0, decided=[(0, conflicting)]), sender=1)

    def test_ballot_owner_pushes_missing_decisions_in_slot_order(self):
        harness, process = start_replica(pid=0, n=3)
        for slot in (4, 0, 2):
            process.log.learn(slot, command(slot))
        harness.clear_sent()
        harness.deliver(make_promise(process.mbal, decided=[(2, command(2))]), sender=1)
        pushes = harness.sent_of_kind("slot_decision")
        assert [(item.dst, item.message.slot, item.message.value) for item in pushes] == [
            (1, 0, command(0)), (1, 4, command(4)),
        ]

    def test_promise_ships_the_log_from_the_owners_announced_prefix(self):
        harness, process = start_replica(pid=2, n=3)
        for slot in range(5):
            harness.deliver(SlotDecision(slot=slot, value=command(slot)), sender=0)
        harness.clear_sent()
        harness.deliver(MultiPhase1a(mbal=7, prefix=3), sender=1)  # from ballot 7's owner
        message = harness.sent_of_kind("mphase1b")[0].message
        assert message.decided == ((3, command(3)), (4, command(4)))
        assert message.prefix == 5

    def test_promise_cut_follows_the_owner_not_the_phase1a_sender(self):
        harness, process = start_replica(pid=2, n=3)
        for slot in range(5):
            harness.deliver(SlotDecision(slot=slot, value=command(slot)), sender=0)
        harness.deliver(MultiPhase1a(mbal=7, prefix=3), sender=1)
        harness.clear_sent()
        # p0 re-broadcasts ballot 7 (owned by p1) with a longer prefix: the
        # promise still goes to p1, so it is cut at what p1 announced.
        harness.deliver(MultiPhase1a(mbal=7, prefix=5), sender=0)
        replies = harness.sent_of_kind("mphase1b")
        assert [item.dst for item in replies] == [1]
        assert [slot for slot, _ in replies[0].message.decided] == [3, 4]

    def test_promise_cut_never_passes_the_senders_own_prefix(self):
        harness, process = start_replica(pid=2, n=3)
        for slot in (0, 1, 3):
            harness.deliver(SlotDecision(slot=slot, value=command(slot)), sender=0)
        harness.clear_sent()
        harness.deliver(MultiPhase1a(mbal=7, prefix=4), sender=1)
        message = harness.sent_of_kind("mphase1b")[0].message
        assert message.prefix == 2
        assert message.decided == ((3, command(3)),)

    def test_ballot_owner_pushes_only_what_lies_past_the_senders_prefix(self):
        harness, process = start_replica(pid=0, n=3)
        for slot in range(6):
            process.log.learn(slot, command(slot))
        harness.clear_sent()
        promise = MultiPhase1b(mbal=process.mbal, votes=(), decided=((3, command(3)),), prefix=2)
        harness.deliver(promise, sender=1)
        pushes = harness.sent_of_kind("slot_decision")
        assert [(item.dst, item.message.slot) for item in pushes] == [(1, 2), (1, 4), (1, 5)]

    def test_own_promise_pushes_nothing(self):
        harness, process = start_replica(pid=0, n=3)
        process.log.learn(0, command(0))
        harness.clear_sent()
        harness.deliver(make_promise(process.mbal), sender=0)
        assert harness.sent_of_kind("slot_decision") == []


class TestPhase2:
    def test_learning_a_slot_drops_its_vote(self):
        harness, process = start_replica(pid=1, n=3)
        harness.deliver(MultiPhase2a(mbal=6, slot=0, value=command(0)), sender=0)
        assert 0 in process.accepted
        harness.deliver(SlotDecision(slot=0, value=command(0)), sender=0)
        assert 0 not in process.accepted
        assert harness.storage.get("proto:accepted:0") == (6, command(0))

    def test_accept_for_a_decided_slot_is_persisted_but_not_kept(self):
        harness, process = start_replica(pid=1, n=3)
        harness.deliver(SlotDecision(slot=0, value=command(0)), sender=0)
        harness.clear_sent()
        harness.deliver(MultiPhase2a(mbal=6, slot=0, value=command(0)), sender=0)
        assert len(harness.sent_of_kind("mphase2b")) == 3
        assert harness.storage.get("proto:accepted:0") == (6, command(0))
        assert 0 not in process.accepted
        restarted = harness.restart(MultiPaxosSmrProcess(), initial_value="v1")
        assert restarted.accepted == {} and restarted.log.snapshot().get(0) == command(0)

    def test_accept_and_ack(self):
        harness, process = start_replica(pid=1, n=3)
        harness.clear_sent()
        harness.deliver(MultiPhase2a(mbal=6, slot=0, value=("c", ("set", "k", 1))), sender=0)
        assert process.accepted[0] == (6, ("c", ("set", "k", 1)))
        acks = harness.sent_of_kind("mphase2b")
        assert len(acks) == 3 and acks[0].message.slot == 0

    def test_stale_accept_ignored(self):
        harness, process = start_replica(pid=1, n=3)
        harness.deliver(MultiPhase1a(mbal=9), sender=0)
        harness.clear_sent()
        harness.deliver(MultiPhase2a(mbal=3, slot=0, value=("c", ("set", "k", 1))), sender=0)
        assert harness.sent_of_kind("mphase2b") == []
        assert 0 not in process.accepted

    def test_quorum_of_acks_learns_the_slot(self):
        harness, process = start_replica(pid=0, n=3)
        value = ("cmd-1", ("set", "k", 1))
        harness.deliver(MultiPhase2b(mbal=5, slot=0, value=value), sender=1)
        assert process.log.snapshot().get(0) is None
        harness.deliver(MultiPhase2b(mbal=5, slot=0, value=value), sender=2)
        assert process.log.snapshot().get(0) == value
        assert [f["slot"] for f in harness.emitted_events("slot_decide")] == [0]

    def test_slot_decision_message_learns_directly(self):
        harness, process = start_replica(pid=0, n=3)
        harness.deliver(SlotDecision(slot=3, value=("c", ("set", "k", 2))), sender=2)
        assert process.log.snapshot().get(3) == ("c", ("set", "k", 2))


class TestCommands:
    def test_established_leader_assigns_submitted_commands(self):
        schedule = [(0.0, "cmd-a", ("set", "x", 1))]
        harness, process = start_replica(pid=0, n=3, schedule=schedule)
        establish(harness, process)
        harness.clear_sent()
        harness.fire_timer("submit-0")
        proposals = harness.sent_of_kind("mphase2a")
        assert proposals and proposals[0].message.value == ("cmd-a", ("set", "x", 1))
        assert harness.emitted_events("command_assign")

    def test_non_owner_forwards_to_ballot_owner(self):
        harness, process = start_replica(pid=0, n=3)
        harness.deliver(MultiPhase1a(mbal=7), sender=1)  # now promised to ballot owned by 1
        harness.clear_sent()
        process._submit("cmd-b", ("set", "y", 2))
        forwards = harness.sent_of_kind("cmd_request")
        assert [item.dst for item in forwards] == [1]

    def test_leader_handles_forwarded_request(self):
        harness, process = start_replica(pid=0, n=3)
        establish(harness, process)
        harness.clear_sent()
        harness.deliver(CommandRequest(command_id="cmd-c", command=("set", "z", 3), origin=2), sender=2)
        proposals = harness.sent_of_kind("mphase2a")
        assert proposals and proposals[0].message.value == ("cmd-c", ("set", "z", 3))

    def test_duplicate_requests_are_assigned_once(self):
        harness, process = start_replica(pid=0, n=3)
        establish(harness, process)
        harness.clear_sent()
        request = CommandRequest(command_id="cmd-d", command=("set", "w", 4), origin=2)
        harness.deliver(request, sender=2)
        harness.deliver(request, sender=2)
        # One assignment only: a single phase-2a broadcast, all for the same slot.
        assert len(harness.emitted_events("command_assign")) == 1
        slots = {item.message.slot for item in harness.sent_of_kind("mphase2a")}
        assert slots == {0}

    def test_reproposed_command_is_not_assigned_again(self):
        harness, process = start_replica(pid=0, n=3)
        harness.deliver(make_promise(process.mbal, votes=[(0, (1, command(0)))]), sender=1)
        harness.deliver(make_promise(process.mbal), sender=2)
        assert process.is_established_leader
        harness.clear_sent()
        process._submit("cmd-0", command(0)[1])
        assert harness.emitted_events("command_assign") == []
        assert harness.sent_of_kind("mphase2a") == []

    def test_logged_command_not_reassigned(self):
        harness, process = start_replica(pid=0, n=3)
        establish(harness, process)
        process.log.learn(0, ("cmd-e", ("set", "q", 5)))
        harness.clear_sent()
        harness.deliver(CommandRequest(command_id="cmd-e", command=("set", "q", 5), origin=1), sender=1)
        assert harness.sent_of_kind("mphase2a") == []


class TestLeaderStability:
    def test_owner_message_rearms_session_timer(self):
        harness, process = start_replica(pid=2, n=3)
        harness.deliver(MultiPhase1a(mbal=7), sender=1)  # adopt ballot 7 owned by p1
        harness.timers.pop("session")  # pretend it is about to expire
        harness.deliver(MultiPhase1a(mbal=7), sender=1)  # keep-alive from the owner
        assert "session" in harness.timers

    def test_non_owner_message_does_not_rearm(self):
        harness, process = start_replica(pid=2, n=3)
        harness.deliver(MultiPhase1a(mbal=7), sender=1)
        harness.timers.pop("session")
        harness.deliver(MultiPhase2b(mbal=7, slot=0, value=("c", ("set", "k", 1))), sender=0)
        assert "session" not in harness.timers

    def test_session_timeout_still_starts_new_session_when_owner_silent(self):
        harness, process = start_replica(pid=1, n=3)
        harness.fire_timer("session")
        assert process.session == 1
        assert process.mbal == ballot_for(1, 1, 3)

    def test_higher_session_requires_majority_evidence(self):
        harness, process = start_replica(pid=0, n=3)
        harness.deliver(MultiPhase1a(mbal=4), sender=1)  # session 1, heard one process
        harness.fire_timer("session")
        assert process.session == 1  # blocked by the majority-entry rule


class TestRestart:
    def test_restarted_replica_is_pushed_every_missing_slot(self):
        owner_harness, owner = start_replica(pid=0, n=3)
        harness, process = start_replica(pid=1, n=3)
        for slot in range(6):
            owner_harness.deliver(SlotDecision(slot=slot, value=command(slot)), sender=2)
        for slot in (0, 1):
            harness.deliver(SlotDecision(slot=slot, value=command(slot)), sender=2)
        harness.deliver(MultiPhase1a(mbal=0, prefix=6), sender=0)  # p1 hears p0's prefix
        restarted = harness.restart(MultiPaxosSmrProcess(), initial_value="v1")
        harness.clear_sent()
        # The restart forgot p0's prefix, so the promise for p0's ballot 3
        # (re-broadcast by p2) is cut at 0: it lists the whole restored log.
        harness.deliver(MultiPhase1a(mbal=3, prefix=6), sender=2)
        promise = harness.sent_of_kind("mphase1b")[0]
        assert promise.dst == 0
        assert promise.message.decided == ((0, command(0)), (1, command(1)))
        assert promise.message.prefix == 2
        owner_harness.deliver(MultiPhase1a(mbal=3, prefix=6), sender=2)
        owner_harness.clear_sent()
        owner_harness.deliver(promise.message, sender=1)
        pushes = owner_harness.sent_of_kind("slot_decision")
        assert [(item.dst, item.message.slot) for item in pushes] == [(1, slot) for slot in range(2, 6)]
        for item in pushes:
            harness.deliver(item.message, sender=0)
        assert restarted.log.snapshot() == owner.log.snapshot()

    def test_restart_recovers_log_ballot_and_accepted_state(self):
        harness, process = start_replica(pid=0, n=3)
        harness.deliver(MultiPhase1a(mbal=7), sender=1)
        harness.deliver(MultiPhase2a(mbal=7, slot=0, value=("c0", ("set", "a", 1))), sender=1)
        harness.deliver(SlotDecision(slot=1, value=("c1", ("set", "b", 2))), sender=2)
        restarted = harness.restart(MultiPaxosSmrProcess(), initial_value="v0")
        assert restarted.mbal == 7
        assert restarted.accepted[0] == (7, ("c0", ("set", "a", 1)))
        assert restarted.log.snapshot().get(1) == ("c1", ("set", "b", 2))

    def test_per_slot_keys_rebuild_the_pre_crash_state(self):
        harness, process = start_replica(pid=0, n=3)
        harness.deliver(MultiPhase1a(mbal=7), sender=1)
        # Accepted but undecided slots 0, 2 and 11 (11 sorts before 2 as a
        # string key), decided slots 1 and 10.
        for slot in (0, 2, 11):
            harness.deliver(MultiPhase2a(mbal=7, slot=slot, value=(f"c{slot}", ("set", "k", slot))), sender=1)
        for slot in (1, 10):
            harness.deliver(SlotDecision(slot=slot, value=(f"c{slot}", ("set", "k", slot))), sender=2)
        assert sorted(harness.storage) == [
            "proto:accepted:0", "proto:accepted:11", "proto:accepted:2",
            "proto:log:1", "proto:log:10", "proto:mbal",
        ]
        before = (process.mbal, dict(process.accepted), process.log.snapshot(), set(process.log.command_ids))

        # Volatile state is lost in a crash: mutating it after the writes must
        # not reach what the restart recovers.
        process.accepted[0] = (99, ("junk", ("set", "k", -1)))
        del process.accepted[2]
        process.mbal = 99

        restarted = harness.restart(MultiPaxosSmrProcess(), initial_value="v0")
        after = (restarted.mbal, restarted.accepted, restarted.log.snapshot(), restarted.log.command_ids)
        assert after == before
        assert 0 in restarted.accepted and 0 not in restarted.log

    def test_each_write_stores_only_what_changed(self):
        harness, process = start_replica(pid=0, n=3)
        harness.deliver(MultiPhase1a(mbal=7), sender=1)
        writes = harness.storage.write_count
        harness.deliver(MultiPhase2a(mbal=7, slot=5, value=("c5", ("set", "k", 5))), sender=1)
        harness.deliver(SlotDecision(slot=5, value=("c5", ("set", "k", 5))), sender=2)
        assert harness.storage.write_count == writes + 2
        assert harness.storage.get("proto:accepted:5") == (7, ("c5", ("set", "k", 5)))
        assert harness.storage.get("proto:log:5") == ("c5", ("set", "k", 5))


class TestBuilder:
    def test_builder_passes_per_pid_schedules(self):
        schedule = ScheduleSpec(entries=((1, 2.0, "cmd-a", ("set", "x", 1)),))
        builder = MultiPaxosSmrBuilder(schedule=schedule)
        stable_scenario(3, params=make_params(), seed=1).build_simulator(builder)  # attaches it
        assert builder.entries == {1: [(2.0, "cmd-a", ("set", "x", 1))]}
        assert builder.command_ids == ("cmd-a",)
        with_schedule = builder.create(1)
        without_schedule = builder.create(0)
        assert with_schedule._schedule == [(2.0, "cmd-a", ("set", "x", 1))]
        assert without_schedule._schedule == []
        assert "session-entry-rule" in builder.invariant_checks()
