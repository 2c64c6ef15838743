"""Unit tests for quorum arithmetic and the vote counter (`repro.consensus.quorum`)."""

import pytest

from repro.consensus.quorum import ValueQuorum, majority
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


class TestValueQuorum:
    def test_first_report_per_sender_wins(self):
        votes = ValueQuorum(threshold=2)
        votes.add("r", 0, "v")
        votes.add("r", 0, "w")
        votes.add("r", 1, "w")
        assert votes.count("r") == 2
        assert votes.quorum_value("r") is None

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

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ValueQuorum(threshold=0)
