"""Integration: crash/restart behaviour and recovery after stabilization (E5)."""

import pytest

from repro.analysis.metrics import restart_recovery_lags
from repro.core.timing import decision_bound, restart_decision_bound
from repro.harness.runner import run_scenario
from repro.workloads.chaos import partitioned_chaos_scenario
from repro.workloads.restarts import restart_after_stability_scenario

from tests.helpers import make_params

PARAMS = make_params(rho=0.01)


class TestRestartAfterStabilization:
    @pytest.mark.parametrize("protocol", ["modified-paxos", "modified-b-consensus"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_everyone_decides_including_restarted(self, protocol, seed):
        scenario = restart_after_stability_scenario(
            7, params=PARAMS, ts=10.0, seed=seed, restart_offsets=[5.0, 20.0, 40.0]
        )
        result = run_scenario(scenario, protocol)
        assert result.decided_all
        assert result.safety.valid

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recovery_lag_is_o_delta(self, seed):
        """C4: a process restarting after TS decides within O(δ) of its restart."""
        scenario = restart_after_stability_scenario(
            7, params=PARAMS, ts=10.0, seed=seed, restart_offsets=[5.0, 20.0, 40.0]
        )
        result = run_scenario(scenario, "modified-paxos")
        lags = restart_recovery_lags(result.simulator)
        assert len(lags) == 3
        for lag in lags.values():
            assert lag <= restart_decision_bound(PARAMS) + decision_bound(PARAMS)
            # In practice decided processes re-broadcast their decision, so
            # recovery is far faster than the composite bound.
            assert lag <= 10.0 * PARAMS.delta

    def test_restarted_processes_used_their_stable_storage(self):
        scenario = restart_after_stability_scenario(
            7, params=PARAMS, ts=10.0, seed=1, restart_offsets=[5.0]
        )
        result = run_scenario(scenario, "modified-paxos")
        restarted = [event.pid for event in result.simulator.trace.filter(event="restart")]
        assert restarted
        for pid in restarted:
            node = result.simulator.nodes[pid]
            assert node.incarnation >= 2
            assert node.storage.write_count > 0

    def test_late_restarter_learns_existing_decision(self):
        """A process restarting long after the others decided adopts their value."""
        scenario = restart_after_stability_scenario(
            5, params=PARAMS, ts=10.0, seed=2, restart_offsets=[40.0]
        )
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        values = {record.value for record in result.simulator.decisions.values()}
        assert len(values) == 1
        # The majority decided well before the restart happened.
        restart_time = result.simulator.trace.filter("restart")[0].time
        early_deciders = [
            record for pid, record in result.simulator.decisions.items() if record.time < restart_time
        ]
        assert len(early_deciders) >= result.simulator.config.majority


class TestRestartsBeforeStabilization:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_pre_ts_restarts_do_not_break_safety_or_liveness(self, seed):
        # partitioned_chaos_scenario already includes pre-TS crashes and restarts.
        scenario = partitioned_chaos_scenario(9, params=PARAMS, ts=10.0, seed=seed)
        restarts = [e for e in scenario.fault_plan if e.kind.value == "restart"]
        result = run_scenario(scenario, "modified-paxos")
        assert result.safety.valid
        assert result.decided_all
        # If the plan restarted anyone before TS, their storage survived.
        for event in restarts:
            assert result.simulator.nodes[event.pid].incarnation >= 2
