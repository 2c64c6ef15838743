"""Edge cases: degenerate system sizes, even N, extreme parameters, trace limits."""

import dataclasses

import pytest

from repro.core.timing import decision_bound
from repro.errors import InvariantViolation
from repro.harness.runner import run_scenario
from repro.params import TimingParams
from repro.workloads.chaos import partitioned_chaos_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params


class TestDegenerateSystemSizes:
    def test_single_process_decides_alone(self):
        """n=1: the process is its own majority and decides immediately."""
        params = make_params()
        result = run_scenario(stable_scenario(1, params=params, seed=0), "modified-paxos")
        assert result.decided_all
        assert result.safety.valid
        assert result.max_lag_after_ts() <= 3.0

    def test_two_processes_need_each_other(self):
        """n=2: majority is 2, so both must participate; still decides when stable."""
        params = make_params()
        for protocol in ("modified-paxos", "rotating-coordinator"):
            result = run_scenario(stable_scenario(2, params=params, seed=1), protocol)
            assert result.decided_all
            assert result.safety.valid

    def test_two_processes_cannot_decide_if_one_is_down(self):
        params = make_params()
        scenario = stable_scenario(2, params=params, seed=1, max_time=30.0)
        scenario.expected_deciders = [0]

        def crash_one(simulator):
            simulator.schedule_crash(1, 0.001)

        # A crash at t>=ts violates the model, so wire it directly instead of
        # a fault plan: this test is exactly about what happens outside the
        # majority assumption.
        scenario.post_setup = crash_one
        result = run_scenario(scenario, "modified-paxos", run_until_decided=False)
        assert 0 not in result.simulator.decisions
        assert result.safety.valid  # no decision, trivially safe


class TestEvenSystemSizes:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("protocol", ["modified-paxos", "modified-b-consensus"])
    def test_even_n_under_chaos(self, n, protocol):
        params = make_params(rho=0.01)
        scenario = partitioned_chaos_scenario(n, params=params, ts=6.0, seed=3)
        result = run_scenario(scenario, protocol)
        assert result.decided_all
        assert result.safety.valid

    def test_even_n_quorums_are_strict_majorities(self):
        from repro.consensus.quorum import majority

        assert majority(4) == 3
        assert majority(6) == 4
        assert majority(8) == 5


class TestExtremeParameters:
    def test_large_clock_drift_still_respects_bound(self):
        """ρ = 0.2 inflates σ and τ; measured lag must respect the inflated bound."""
        params = TimingParams(delta=1.0, rho=0.2, epsilon=0.5)
        scenario = partitioned_chaos_scenario(5, params=params, ts=6.0, seed=2)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.max_lag_after_ts() <= decision_bound(params)

    def test_delta_scaling(self):
        """With δ = 5 the absolute lag grows but stays below the (δ-scaled) bound."""
        params = TimingParams(delta=5.0, rho=0.01, epsilon=2.5)
        scenario = partitioned_chaos_scenario(5, params=params, ts=30.0, seed=4)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        lag = result.max_lag_after_ts()
        assert lag <= decision_bound(params)
        assert lag > 1.0  # several real seconds: the bound genuinely scales with delta

    def test_tiny_epsilon_is_chatty_but_correct(self):
        params = TimingParams(delta=1.0, rho=0.01, epsilon=0.05)
        scenario = partitioned_chaos_scenario(3, params=params, ts=4.0, seed=5)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.metrics.messages_sent > 500  # keep-alives every 0.05 delta

    def test_decision_lag_independent_of_how_late_stability_comes(self):
        """The headline property: lag after TS does not depend on TS itself."""
        params = make_params(rho=0.01)
        lags = {}
        for ts in (5.0, 40.0):
            scenario = partitioned_chaos_scenario(5, params=params, ts=ts, seed=6)
            result = run_scenario(scenario, "modified-paxos")
            lags[ts] = result.max_lag_after_ts()
        assert all(lag is not None and lag <= decision_bound(params) for lag in lags.values())
        assert abs(lags[40.0] - lags[5.0]) <= 6.0


class TestTraceLimits:
    def test_trace_capacity_truncates_but_run_completes(self):
        from repro.net.network import Network
        from repro.net.synchrony import EventualSynchrony
        from repro.sim.rng import SeededRng
        from repro.sim.simulator import SimulationConfig, Simulator
        from repro.core.modified_paxos import ModifiedPaxosBuilder

        params = make_params()
        config = SimulationConfig(
            n=3, params=params, ts=0.0, seed=1, max_time=50.0, trace_capacity=20
        )
        builder = ModifiedPaxosBuilder()
        network = Network(model=EventualSynchrony(ts=0.0, delta=1.0), rng=SeededRng(1))
        simulator = Simulator(config, builder.create, network)
        builder.attach(simulator)
        simulator.run_until_decided()
        assert simulator.trace.truncated
        assert len(simulator.trace) == 20
        assert len(simulator.decisions) == 3

    def test_truncated_trace_fails_the_invariant_checks(self):
        params = make_params()
        scenario = stable_scenario(3, params=params, seed=2)
        scenario.config = dataclasses.replace(scenario.config, trace_capacity=20)
        with pytest.raises(InvariantViolation, match="truncated at capacity 20"):
            run_scenario(scenario, "modified-paxos")
        result = run_scenario(scenario, "modified-paxos", enforce_invariants=False)
        assert result.simulator.trace.truncated
        report = result.invariants["session-entry-rule"]
        assert not report.ok
        assert "capacity 20" in report.violations[0]

    def test_trace_disabled_still_runs(self):
        params = make_params()
        scenario = stable_scenario(3, params=params, seed=2)
        scenario.config = type(scenario.config)(
            n=3, params=params, ts=0.0, seed=2, max_time=scenario.config.max_time,
            trace_enabled=False,
        )
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert len(result.simulator.trace) == 0
