"""Integration: the baselines' O(Nδ) behaviour and the contrast with Modified Paxos (E2/E3)."""

from repro.core.timing import decision_bound
from repro.harness.runner import run_scenario
from repro.workloads.coordinator_faults import coordinator_crash_scenario
from repro.workloads.obsolete import obsolete_ballot_scenario
from repro.workloads.chaos import partitioned_chaos_scenario

from tests.helpers import make_params

PARAMS = make_params(rho=0.01)


class TestObsoleteBallots:
    def test_traditional_paxos_lag_grows_with_obsolete_count(self):
        lags = {}
        for k in (0, 2, 4):
            scenario = obsolete_ballot_scenario(9, params=PARAMS, seed=1, num_obsolete=k)
            result = run_scenario(scenario, "traditional-paxos")
            assert result.decided_all
            assert result.safety.valid
            lags[k] = result.max_lag_after_ts()
        assert lags[2] > lags[0]
        assert lags[4] > lags[2]
        # Each obsolete ballot costs at least roughly one extra round trip.
        assert lags[4] - lags[0] >= 2.0 * PARAMS.delta

    def test_traditional_paxos_exceeds_modified_bound_for_larger_systems(self):
        scenario = obsolete_ballot_scenario(17, params=PARAMS, seed=1)
        result = run_scenario(scenario, "traditional-paxos")
        assert result.decided_all
        assert result.max_lag_after_ts() > decision_bound(PARAMS)

    def test_every_release_is_recorded_in_the_trace(self):
        scenario = obsolete_ballot_scenario(9, params=PARAMS, seed=2, num_obsolete=3)
        result = run_scenario(scenario, "traditional-paxos")
        assert len(result.simulator.trace.filter("obsolete_release")) == 3

    def test_modified_paxos_same_size_same_chaos_stays_within_bound(self):
        """The contrast that motivates the paper, at the same system size."""
        baseline = run_scenario(
            obsolete_ballot_scenario(13, params=PARAMS, seed=1), "traditional-paxos"
        )
        modified = run_scenario(
            partitioned_chaos_scenario(13, params=PARAMS, ts=8.0, seed=1), "modified-paxos"
        )
        assert modified.max_lag_after_ts() <= decision_bound(PARAMS)
        assert baseline.max_lag_after_ts() > modified.max_lag_after_ts()


class TestCrashedCoordinators:
    def test_rotating_coordinator_lag_grows_with_faulty_coordinators(self):
        lags = {}
        for f in (0, 2, 4):
            scenario = coordinator_crash_scenario(11, params=PARAMS, seed=1, num_faulty=f)
            result = run_scenario(scenario, "rotating-coordinator")
            assert result.decided_all
            assert result.safety.valid
            lags[f] = result.max_lag_after_ts()
        assert lags[2] > lags[0]
        assert lags[4] > lags[2]
        # Each crashed coordinator costs roughly one round timeout (4 delta).
        assert lags[4] - lags[0] >= 4.0 * PARAMS.delta

    def test_rotating_coordinator_exceeds_modified_bound_at_max_faults(self):
        scenario = coordinator_crash_scenario(13, params=PARAMS, seed=1)
        result = run_scenario(scenario, "rotating-coordinator")
        assert result.decided_all
        assert result.max_lag_after_ts() > decision_bound(PARAMS)

    def test_modified_paxos_unaffected_by_crashed_low_id_processes(self):
        """Modified Paxos has no coordinator role, so the same fault pattern is harmless."""
        scenario = coordinator_crash_scenario(11, params=PARAMS, seed=1, num_faulty=4)
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.max_lag_after_ts() <= decision_bound(PARAMS)

    def test_round_entry_invariant_holds(self):
        scenario = coordinator_crash_scenario(9, params=PARAMS, seed=3, num_faulty=3)
        result = run_scenario(scenario, "rotating-coordinator")
        assert result.invariants["round-entry-rule"].ok

    def test_decided_value_proposed_by_a_survivor_or_anyone(self):
        scenario = coordinator_crash_scenario(9, params=PARAMS, seed=3, num_faulty=3)
        result = run_scenario(scenario, "rotating-coordinator")
        decided = {record.value for record in result.simulator.decisions.values()}
        assert len(decided) == 1
        assert decided.pop() in result.simulator.proposals.values()
