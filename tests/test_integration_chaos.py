"""Integration: the paper's headline claims under pre-stabilization chaos (E1/E4).

These are the tests that actually check the reproduction: after an
adversarial pre-``TS`` period (partitions, loss, deferred messages, crashes,
restarts), the modified algorithms decide within the analytic ``O(δ)`` bound
of the stabilization time, for every seed tried, at several system sizes —
while remaining safe.
"""

import pytest

from repro.analysis.invariants import check_session_entry_rule, check_unique_phase2a_value
from repro.core.timing import decision_bound
from repro.harness.runner import run_scenario
from repro.workloads.chaos import lossy_chaos_scenario, partitioned_chaos_scenario

from tests.helpers import make_params

PARAMS = make_params(rho=0.01)
BOUND = decision_bound(PARAMS)
TS = 8.0


class TestModifiedPaxosUnderChaos:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_decides_within_bound_after_partitioned_chaos(self, n, seed):
        scenario = partitioned_chaos_scenario(n, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all, f"undecided: {result.outcome.undecided_pids}"
        assert result.safety.valid
        lag = result.max_lag_after_ts()
        assert lag is not None and lag <= BOUND

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decides_within_bound_after_lossy_chaos(self, seed):
        scenario = lossy_chaos_scenario(7, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.safety.valid
        assert result.max_lag_after_ts() <= BOUND

    def test_lag_does_not_grow_with_n(self):
        """The heart of claim C1: post-TS decision lag is flat in N."""
        lags = {}
        for n in (3, 9, 15):
            scenario = partitioned_chaos_scenario(n, params=PARAMS, ts=TS, seed=5)
            result = run_scenario(scenario, "modified-paxos")
            lags[n] = result.max_lag_after_ts()
        assert all(lag is not None and lag <= BOUND for lag in lags.values())
        # Explicitly: the large system is not an O(N) factor slower.
        assert lags[15] <= lags[3] + 8.0 * PARAMS.delta

    def test_no_decision_before_stabilization_under_partition(self):
        scenario = partitioned_chaos_scenario(7, params=PARAMS, ts=TS, seed=4)
        result = run_scenario(scenario, "modified-paxos")
        for record in result.simulator.decisions.values():
            assert record.time >= TS

    def test_session_invariants_hold_on_chaos_traces(self):
        scenario = partitioned_chaos_scenario(7, params=PARAMS, ts=TS, seed=6)
        result = run_scenario(scenario, "modified-paxos")
        session_report = check_session_entry_rule(result.simulator.trace, 7)
        value_report = check_unique_phase2a_value(result.simulator.trace, 7)
        assert session_report.ok
        assert value_report.ok

    def test_sessions_stay_low_despite_long_chaos(self):
        """The majority-entry rule caps session numbers: chaos cannot inflate them."""
        scenario = partitioned_chaos_scenario(7, params=PARAMS, ts=20.0, seed=7)
        result = run_scenario(scenario, "modified-paxos")
        sessions = [e.fields["session"] for e in result.simulator.trace.filter(event="session_enter")]
        assert sessions
        assert max(sessions) <= 4

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bound_holds_even_with_worst_case_post_ts_delays(self, seed):
        """Every post-TS delivery takes the full δ; the bound must still hold."""
        scenario = partitioned_chaos_scenario(
            7, params=PARAMS, ts=TS, seed=seed, worst_case_post_delays=True
        )
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.safety.valid
        lag = result.max_lag_after_ts()
        assert lag is not None and lag <= BOUND
        # Worst-case delays are genuinely slower than the random-delay runs.
        relaxed = run_scenario(
            partitioned_chaos_scenario(7, params=PARAMS, ts=TS, seed=seed), "modified-paxos"
        )
        assert lag >= relaxed.max_lag_after_ts()


class TestModifiedBConsensusUnderChaos:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_decides_quickly_and_safely(self, n, seed):
        scenario = partitioned_chaos_scenario(n, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, "modified-b-consensus")
        assert result.decided_all
        assert result.safety.valid
        # No closed-form bound in the paper; "about the same" as Modified
        # Paxos - allow a generous constant, still O(delta) and independent of N.
        assert result.max_lag_after_ts() <= 2.0 * BOUND

    def test_original_bconsensus_is_safe_under_chaos(self):
        scenario = partitioned_chaos_scenario(5, params=PARAMS, ts=TS, seed=3)
        result = run_scenario(scenario, "b-consensus")
        assert result.safety.valid
        assert result.decided_all


class TestBaselinesUnderChaosStaySafe:
    """The baselines may be slow, but they must never violate safety."""

    @pytest.mark.parametrize("protocol", ["traditional-paxos", "rotating-coordinator"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_safety_under_partitioned_chaos(self, protocol, seed):
        scenario = partitioned_chaos_scenario(7, params=PARAMS, ts=TS, seed=seed)
        result = run_scenario(scenario, protocol)
        assert result.safety.valid
        assert result.decided_all
