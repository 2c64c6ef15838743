"""Unit tests for the decision-lag rule and trace invariants (`repro.analysis`)."""

import pytest

from repro.analysis.invariants import (
    check_rotating_round_entry,
    check_session_entry_rule,
    check_single_session_leadership,
    check_unique_phase2a_value,
)
from repro.analysis.metrics import max_lag_after_ts
from repro.analysis.trace import TraceRecorder
from repro.consensus.values import RunOutcome
from repro.errors import InvariantViolation


class TestMaxLagAfterTs:
    def test_lag_clamped_at_zero_for_early_deciders(self):
        times = {0: 8.0, 1: 12.5}
        assert max_lag_after_ts(times, 10.0, [0]) == 0.0
        assert max_lag_after_ts(times, 10.0, [1]) == pytest.approx(2.5)
        assert max_lag_after_ts(times, 10.0, [7]) is None

    def test_max_lag_over_selected_pids(self):
        times = {0: 11.0, 1: 14.0, 2: 9.0}
        assert max_lag_after_ts(times, 10.0, sorted(times)) == pytest.approx(4.0)
        assert max_lag_after_ts(times, 10.0, [0, 2]) == pytest.approx(1.0)

    def test_max_lag_none_if_requested_pid_undecided(self):
        assert max_lag_after_ts({0: 11.0}, 10.0, [0, 1]) is None

    def test_no_pids_have_no_lag(self):
        assert max_lag_after_ts({0: 11.0, 1: 13.0}, 10.0, []) is None
        assert max_lag_after_ts({}, 0.0, []) is None

    def test_all_decided_flag(self):
        outcome = RunOutcome(protocol="p", n=4, ts=0.0, delta=1.0, seed=0)
        assert outcome.all_decided
        outcome.undecided_pids = [3]
        assert not outcome.all_decided


def _session_trace(entries, starts):
    """Build a protocol trace from (time, pid, session) tuples."""
    trace = TraceRecorder()
    events = [(t, pid, s, "session_enter") for t, pid, s in entries]
    events += [(t, pid, s, "start_phase1") for t, pid, s in starts]
    for t, pid, session, event in sorted(events):
        trace.record(t, "protocol", event, pid=pid, session=session)
    return trace


class TestSessionEntryRule:
    def test_legal_history_passes(self):
        # All three processes enter session 1 before anyone starts session 2.
        trace = _session_trace(
            entries=[(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0), (1.0, 0, 1), (1.1, 1, 1), (1.2, 2, 1)],
            starts=[(5.0, 0, 2)],
        )
        report = check_session_entry_rule(trace, n=3)
        assert report.ok
        assert report.checked == 1
        report.raise_if_violated()

    def test_premature_start_detected(self):
        # Only one process ever entered session 1, yet someone starts session 2.
        trace = _session_trace(
            entries=[(0.0, 0, 0), (0.0, 1, 0), (0.0, 2, 0), (1.0, 0, 1)],
            starts=[(2.0, 0, 2)],
        )
        report = check_session_entry_rule(trace, n=3)
        assert not report.ok
        with pytest.raises(InvariantViolation):
            report.raise_if_violated()

    def test_sessions_zero_and_one_unconstrained(self):
        trace = _session_trace(entries=[(0.0, 0, 0)], starts=[(1.0, 0, 1)])
        report = check_session_entry_rule(trace, n=3)
        assert report.ok
        assert report.checked == 0


class TestRotatingRoundEntry:
    def _round_trace(self, entries):
        trace = TraceRecorder()
        for t, pid, round_number, via in entries:
            trace.record(t, "protocol", "round_enter", pid=pid, round=round_number, via=via)
        return trace

    def test_timeout_entry_with_majority_passes(self):
        trace = self._round_trace(
            [
                (0.0, 0, 0, "start"),
                (0.0, 1, 0, "start"),
                (0.0, 2, 0, "start"),
                (4.0, 0, 1, "timeout"),
            ]
        )
        assert check_rotating_round_entry(trace, n=3).ok

    def test_timeout_entry_without_majority_fails(self):
        trace = self._round_trace([(0.0, 0, 0, "start"), (4.0, 0, 1, "timeout")])
        report = check_rotating_round_entry(trace, n=3)
        assert not report.ok

    def test_jump_entries_are_not_constrained(self):
        trace = self._round_trace([(0.0, 0, 0, "start"), (1.0, 0, 5, "jump")])
        assert check_rotating_round_entry(trace, n=3).ok


class TestPhase2aInvariants:
    def test_unique_value_per_ballot(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "phase2a", pid=0, ballot=5, value="v")
        trace.record(2.0, "protocol", "phase2a", pid=0, ballot=5, value="v")
        assert check_unique_phase2a_value(trace, n=3).ok

    def test_conflicting_values_detected(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "phase2a", pid=0, ballot=5, value="v")
        trace.record(2.0, "protocol", "phase2a", pid=1, ballot=5, value="w")
        assert not check_unique_phase2a_value(trace, n=3).ok

    def test_ownership_check(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "phase2a", pid=2, ballot=5, value="v")  # 5 % 3 == 2: ok
        assert check_single_session_leadership(trace, n=3).ok
        trace.record(2.0, "protocol", "phase2a", pid=1, ballot=6, value="v")  # 6 % 3 == 0: bad
        assert not check_single_session_leadership(trace, n=3).ok
