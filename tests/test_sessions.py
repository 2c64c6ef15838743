"""Unit tests for session arithmetic, tracking and the session driver (`repro.core.sessions`).

The driver's rules are tested through both classes that extend
:class:`SessionProcess`, each driven by :class:`tests.helpers.ContextHarness`.
"""

from typing import Any, Callable, NamedTuple

import pytest

from repro.core.messages import Phase1b
from repro.core.modified_paxos import ModifiedPaxosProcess
from repro.core.sessions import (
    SessionProcess,
    SessionTracker,
    ballot_for,
    initial_ballot,
    next_session_ballot,
    owner_of,
    session_of,
)
from repro.errors import ConfigurationError
from repro.smr.messages import MultiPhase1b
from repro.smr.multi_paxos import MultiPaxosSmrProcess

from tests.helpers import ContextHarness, make_params


class TestArithmetic:
    def test_session_of_groups_of_n(self):
        assert session_of(0, 5) == 0
        assert session_of(4, 5) == 0
        assert session_of(5, 5) == 1
        assert session_of(14, 5) == 2

    def test_owner_of(self):
        assert owner_of(7, 5) == 2
        assert owner_of(5, 5) == 0

    def test_ballot_for_roundtrip(self):
        for n in (1, 3, 5, 8):
            for session in (0, 1, 7):
                for owner in range(n):
                    ballot = ballot_for(session, owner, n)
                    assert session_of(ballot, n) == session
                    assert owner_of(ballot, n) == owner

    def test_initial_ballot_is_pid(self):
        assert initial_ballot(3, 7) == 3
        assert session_of(initial_ballot(3, 7), 7) == 0

    def test_next_session_ballot_advances_one_session_and_keeps_owner(self):
        n = 5
        ballot = next_session_ballot(7, pid=2, n=n)
        assert session_of(ballot, n) == session_of(7, n) + 1
        assert owner_of(ballot, n) == 2

    def test_next_session_ballot_from_initial(self):
        assert next_session_ballot(3, pid=3, n=5) == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            session_of(-1, 5)
        with pytest.raises(ConfigurationError):
            session_of(1, 0)
        with pytest.raises(ConfigurationError):
            owner_of(-2, 5)
        with pytest.raises(ConfigurationError):
            ballot_for(-1, 0, 5)
        with pytest.raises(ConfigurationError):
            ballot_for(0, 9, 5)


class TestSessionTracker:
    def test_majority_detection(self):
        tracker = SessionTracker(n=5)
        tracker.observe(ballot=11, sender=0)  # session 2
        tracker.observe(ballot=12, sender=1)
        assert not tracker.heard_majority_in(2)
        tracker.observe(ballot=13, sender=2)
        assert tracker.heard_majority_in(2)

    def test_messages_counted_per_session(self):
        tracker = SessionTracker(n=3)
        tracker.observe(ballot=0, sender=0)   # session 0
        tracker.observe(ballot=4, sender=1)   # session 1
        assert tracker.count_in(0) == 1
        assert tracker.count_in(1) == 1

    def test_duplicate_senders_counted_once(self):
        tracker = SessionTracker(n=3)
        tracker.observe(ballot=1, sender=2)
        tracker.observe(ballot=2, sender=2)
        assert tracker.count_in(0) == 1

    def test_prune_below(self):
        tracker = SessionTracker(n=3)
        tracker.observe(ballot=1, sender=0)    # session 0
        tracker.observe(ballot=4, sender=1)    # session 1
        tracker.observe(ballot=7, sender=2)    # session 2
        tracker.prune_below(2)
        assert tracker.count_in(0) == 0
        assert tracker.count_in(1) == 0
        assert tracker.count_in(2) == 1

    def test_invalid_sender_rejected(self):
        tracker = SessionTracker(n=3)
        with pytest.raises(ConfigurationError):
            tracker.observe(ballot=1, sender=5)

    def test_negative_ballot_rejected(self):
        tracker = SessionTracker(n=3)
        with pytest.raises(ConfigurationError):
            tracker.observe(ballot=-1, sender=0)

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionTracker(n=0)


class Driver(NamedTuple):
    """One class extending the session driver, plus its promise message."""

    process_class: type
    promise: Callable[[int], Any]

    @property
    def phase1a_kind(self) -> str:
        return self.process_class.PHASE1A.kind

    def phase1a(self, mbal: int) -> Any:
        return self.process_class.PHASE1A(mbal=mbal)

    def start(self, pid: int = 0, n: int = 3):
        harness = ContextHarness(pid=pid, n=n, params=make_params())
        process = harness.start(self.process_class(), initial_value=f"v{pid}")
        assert isinstance(process, SessionProcess)
        return harness, process


@pytest.fixture(
    params=[
        Driver(ModifiedPaxosProcess, lambda mbal: Phase1b(mbal=mbal, voted_bal=-1, voted_val=None)),
        Driver(MultiPaxosSmrProcess, lambda mbal: MultiPhase1b(mbal=mbal, votes=(), decided=())),
    ],
    ids=["modified-paxos", "multi-paxos-smr"],
)
def driver(request) -> Driver:
    return request.param


class TestSessionEntry:
    def test_entering_new_session_rebroadcasts_phase1a(self, driver):
        harness, process = driver.start(pid=0, n=3)
        harness.clear_sent()
        harness.deliver(driver.phase1a(4), sender=1)  # session 1
        rebroadcasts = harness.sent_of_kind(driver.phase1a_kind)
        assert len(rebroadcasts) == 3
        assert all(item.message.mbal == 4 for item in rebroadcasts)
        assert [f for f in harness.emitted_events("session_enter") if f["session"] == 1]


class TestStartPhase1Rule:
    def test_session_zero_timeout_starts_next_session(self, driver):
        harness, process = driver.start(pid=1, n=3)
        harness.clear_sent()
        harness.fire_timer("session")
        # New ballot: session 1 owned by pid 1 -> ballot 4.
        assert process.mbal == ballot_for(1, 1, 3)
        assert process.session == 1
        assert harness.sent_of_kind(driver.phase1a_kind)
        assert harness.emitted_events("start_phase1")

    def test_timeout_in_higher_session_requires_majority_evidence(self, driver):
        harness, process = driver.start(pid=0, n=3)
        harness.deliver(driver.phase1a(4), sender=1)  # enter session 1 (heard only p1)
        harness.clear_sent()
        harness.fire_timer("session")
        assert process.session == 1  # blocked: no majority heard in session 1

    def test_majority_evidence_after_timeout_triggers_start(self, driver):
        harness, process = driver.start(pid=0, n=3)
        harness.deliver(driver.phase1a(4), sender=1)
        harness.fire_timer("session")
        assert process.session == 1
        # Second distinct sender with a session-1 ballot completes the majority.
        harness.deliver(driver.promise(5), sender=2)
        assert process.session == 2
        assert process.mbal == ballot_for(2, 0, 3)

    def test_entering_session_rearms_timer_and_clears_expiry(self, driver):
        harness, process = driver.start(pid=0, n=3)
        harness.fire_timer("session")
        assert "session" in harness.timers  # re-armed by the session entry
        harness.clear_sent()
        # Without a new expiry, more evidence must not trigger another start.
        harness.deliver(driver.phase1a(ballot_for(1, 1, 3)), sender=1)
        harness.deliver(driver.promise(ballot_for(1, 2, 3)), sender=2)
        assert process.session == 1


class TestKeepAlive:
    def test_keepalive_rebroadcasts_when_idle(self, driver):
        harness, process = driver.start(pid=0, n=3)
        # The first fire sees the start broadcast, so nothing extra is sent;
        # a second fire with no traffic in between must re-send.
        harness.fire_timer("keepalive")
        harness.clear_sent()
        harness.fire_timer("keepalive")
        assert len(harness.sent_of_kind(driver.phase1a_kind)) == 3
        assert "keepalive" in harness.timers

    def test_keepalive_suppressed_after_recent_send(self, driver):
        harness, process = driver.start(pid=0, n=3)
        harness.fire_timer("keepalive")
        harness.deliver(driver.phase1a(4), sender=1)  # session entry re-broadcasts 1a
        harness.clear_sent()
        harness.fire_timer("keepalive")
        assert harness.sent_of_kind(driver.phase1a_kind) == []
