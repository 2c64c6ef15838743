"""Unit tests for the analytic timing bounds (`repro.core.timing`)."""

import pytest

from repro.core.timing import (
    decision_bound,
    restart_decision_bound,
    rotating_coordinator_worst_case,
    traditional_paxos_worst_case,
)
from repro.params import TimingParams


class TestDecisionBound:
    def test_formula_epsilon_plus_three_tau_plus_five_delta(self):
        params = TimingParams(delta=1.0, rho=0.0, epsilon=0.5)
        # tau = max(2 + 0.5, 4) = 4
        assert decision_bound(params) == pytest.approx(0.5 + 3 * 4.0 + 5.0)

    def test_paper_headline_about_seventeen_delta(self):
        # sigma ~= 4 delta and epsilon << delta gives the paper's "about 17 delta".
        params = TimingParams(delta=1.0, rho=0.001, epsilon=0.01)
        assert decision_bound(params) / params.delta == pytest.approx(17.0, abs=0.2)

    def test_bound_scales_linearly_with_delta(self):
        small = TimingParams(delta=1.0, rho=0.0, epsilon=0.1)
        large = TimingParams(delta=10.0, rho=0.0, epsilon=1.0)
        assert decision_bound(large) == pytest.approx(10.0 * decision_bound(small))

    def test_large_epsilon_enters_through_tau(self):
        small = TimingParams(delta=1.0, rho=0.0, epsilon=0.1)
        large = TimingParams(delta=1.0, rho=0.0, epsilon=5.0)
        assert decision_bound(large) > decision_bound(small)

    def test_restart_bound_below_full_bound(self):
        params = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
        assert restart_decision_bound(params) < decision_bound(params)
        assert restart_decision_bound(params) == pytest.approx(params.tau + 5.0)


class TestBaselineModels:
    def test_traditional_paxos_linear_in_obsolete_count(self):
        params = TimingParams()
        values = [traditional_paxos_worst_case(params, k) for k in range(5)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(diff == pytest.approx(2.0) for diff in diffs)

    def test_rotating_coordinator_linear_in_faulty_count(self):
        params = TimingParams()
        values = [rotating_coordinator_worst_case(params, f) for f in range(5)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(diff == pytest.approx(4.0) for diff in diffs)

    def test_baselines_exceed_modified_bound_for_large_n(self):
        params = TimingParams(delta=1.0, rho=0.01, epsilon=0.1)
        bound = decision_bound(params)
        assert traditional_paxos_worst_case(params, obsolete_ballots=10) > bound
        assert rotating_coordinator_worst_case(params, faulty_coordinators=10) > bound
