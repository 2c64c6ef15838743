"""Unit tests for session arithmetic and tracking (`repro.core.sessions`)."""

import pytest

from repro.core.sessions import (
    SessionTracker,
    ballot_for,
    initial_ballot,
    next_session_ballot,
    owner_of,
    session_of,
)
from repro.errors import ConfigurationError


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

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionTracker(n=0)
