"""Unit tests for quorum arithmetic and counters (`repro.consensus.quorum`)."""

import pytest

from repro.consensus.quorum import QuorumCounter, ValueQuorum, majority
from repro.errors import ConfigurationError


class TestMajority:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4), (10, 6), (31, 16)],
    )
    def test_majority_values(self, n, expected):
        assert majority(n) == expected

    def test_two_majorities_always_intersect(self):
        for n in range(1, 40):
            assert 2 * majority(n) > n

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            majority(0)


class TestQuorumCounter:
    def test_reached_after_threshold_distinct_senders(self):
        counter = QuorumCounter(threshold=3)
        assert counter.add("ballot-1", 0) is False
        assert counter.add("ballot-1", 1) is False
        assert counter.add("ballot-1", 2) is True
        assert counter.reached("ballot-1")

    def test_duplicate_senders_not_double_counted(self):
        counter = QuorumCounter(threshold=2)
        counter.add("k", 0)
        counter.add("k", 0)
        assert counter.count("k") == 1
        assert not counter.reached("k")

    def test_keys_are_independent(self):
        counter = QuorumCounter(threshold=2)
        counter.add("a", 0)
        counter.add("b", 1)
        assert counter.count("a") == 1 and counter.count("b") == 1

    def test_clear_single_key_and_all(self):
        counter = QuorumCounter(threshold=1)
        counter.add("a", 0)
        counter.add("b", 1)
        counter.clear("a")
        assert counter.count("a") == 0 and counter.count("b") == 1
        counter.clear()
        assert counter.count("b") == 0

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            QuorumCounter(threshold=0)


class TestValueQuorum:
    def test_first_report_per_sender_wins(self):
        votes = ValueQuorum(threshold=2)
        votes.add("r", 0, "v")
        votes.add("r", 0, "w")
        assert votes.votes("r") == {0: "v"}

    def test_quorum_value_needs_threshold_for_one_value(self):
        votes = ValueQuorum(threshold=2)
        votes.add("r", 0, "v")
        votes.add("r", 1, "w")
        assert votes.quorum_value("r") is None
        votes.add("r", 2, "v")
        assert votes.quorum_value("r") == "v"

    def test_reached_and_count(self):
        votes = ValueQuorum(threshold=2)
        assert not votes.reached("r")
        votes.add("r", 0, "v")
        votes.add("r", 5, "w")
        assert votes.count("r") == 2
        assert votes.reached("r")

    def test_clear(self):
        votes = ValueQuorum(threshold=1)
        votes.add("a", 0, "v")
        votes.add("b", 0, "v")
        votes.clear("a")
        assert votes.count("a") == 0 and votes.count("b") == 1
        votes.clear()
        assert votes.count("b") == 0

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ValueQuorum(threshold=0)
