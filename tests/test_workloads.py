"""Unit tests for the scenario builders (`repro.workloads`)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import SeededRng
from repro.workloads.chaos import lossy_chaos_scenario, partitioned_chaos_scenario
from repro.workloads.coordinator_faults import coordinator_crash_scenario
from repro.workloads.obsolete import obsolete_ballot_scenario
from repro.workloads.registry import WORKLOADS, factory_parameters
from repro.workloads.restarts import restart_after_stability_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import fault_events, make_params

# The run sizes; every factory takes them, except that the stable ones fix ts.
_SIZES = {"n", "params", "ts", "seed", "max_time"}
_STABLE_SIZES = _SIZES - {"ts"}

# Each workload's parameters: the run sizes plus only the knobs that a caller
# outside the tests sets.  A variant a test needs is an EnvironmentSpec.
_WORKLOAD_PARAMETERS = {
    "stable": _STABLE_SIZES,
    "partitioned-chaos": _SIZES | {"worst_case_post_delays"},
    "lossy-chaos": _SIZES,
    "obsolete-ballots": _SIZES | {"num_obsolete", "ballot_stride", "poll_interval_factor"},
    "coordinator-crash": _SIZES | {"num_faulty"},
    "restarts": _SIZES | {"restart_offsets"},
    "kitchen-sink": _SIZES,
    "environment": _SIZES | {"env"},
    "asymmetric-link": _SIZES,
    "gray-partition": _SIZES,
    "churn": _SIZES | {"waves"},
    "smr-stable": _STABLE_SIZES,
    "smr-chaos": _SIZES | {"worst_case_post_delays"},
    "smr-churn": _SIZES | {"waves"},
    "smr-gray-partition": _SIZES,
    "smr-asymmetric-link": _SIZES,
}


def test_catalogue_lists_every_workload_parameter():
    assert set(_WORKLOAD_PARAMETERS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_takes_only_the_run_sizes_and_its_own_knobs(name):
    factory, _summary, _help = WORKLOADS[name]
    names = {parameter.name for parameter in factory_parameters(factory)}
    assert names == _WORKLOAD_PARAMETERS[name]


class TestStableScenario:
    def test_ts_zero_and_no_faults(self):
        scenario = stable_scenario(5, params=make_params(), seed=1)
        assert scenario.config.ts == 0.0
        assert fault_events(scenario.fault_plan) == []
        assert scenario.deciders() == [0, 1, 2, 3, 4]

    def test_network_is_always_post_stabilization(self):
        scenario = stable_scenario(3, params=make_params(), seed=1)
        network = scenario.build_network(scenario.config, SeededRng(0))
        # Every send, from time 0 on, is in the post-stabilization era.
        assert network.model.ts == 0.0


class TestChaosScenarios:
    @pytest.mark.parametrize("factory", [partitioned_chaos_scenario, lossy_chaos_scenario])
    def test_fault_plan_valid_for_the_model(self, factory):
        scenario = factory(7, params=make_params(), ts=8.0, seed=3)
        scenario.fault_plan.validate(7, ts=8.0)
        assert scenario.config.ts == 8.0

    @pytest.mark.parametrize("factory", [partitioned_chaos_scenario, lossy_chaos_scenario])
    def test_deciders_excludes_permanently_down(self, factory):
        scenario = factory(7, params=make_params(), ts=8.0, seed=3)
        down = scenario.fault_plan.final_down()
        assert set(scenario.deciders()) == set(range(7)) - down

    def test_describe_mentions_name_and_faults(self):
        scenario = partitioned_chaos_scenario(5, params=make_params(), ts=6.0, seed=2)
        text = scenario.describe()
        assert "partitioned-chaos-n5" in text
        assert "ts=6" in text

    def test_network_builds_and_differs_by_seed(self):
        scenario = partitioned_chaos_scenario(6, params=make_params(), ts=6.0, seed=2)
        network = scenario.build_network(scenario.config, SeededRng(1))
        assert network.model.ts == 6.0


class TestObsoleteScenario:
    def test_defaults_use_max_reachable_obsolete_count(self):
        scenario = obsolete_ballot_scenario(9, params=make_params(), seed=0)
        assert "k4" in scenario.name
        assert len(scenario.fault_plan.final_down()) == 4
        assert scenario.deciders() == [0, 1, 2, 3, 4]

    def test_rejects_too_many_obsolete(self):
        with pytest.raises(ConfigurationError):
            obsolete_ballot_scenario(5, params=make_params(), num_obsolete=3)

    def test_rejects_tiny_system(self):
        with pytest.raises(ConfigurationError):
            obsolete_ballot_scenario(2, params=make_params())

    def test_rejects_small_ballot_stride(self):
        with pytest.raises(ConfigurationError):
            obsolete_ballot_scenario(5, params=make_params(), ballot_stride=2)

    def test_horizon_scales_with_k(self):
        small = obsolete_ballot_scenario(5, params=make_params(), num_obsolete=0)
        large = obsolete_ballot_scenario(5, params=make_params(), num_obsolete=2)
        assert large.config.max_time > small.config.max_time


class TestCoordinatorCrashScenario:
    def test_crashes_lowest_ids(self):
        scenario = coordinator_crash_scenario(7, params=make_params(), num_faulty=2)
        assert scenario.fault_plan.final_down() == {0, 1}
        assert scenario.deciders() == [2, 3, 4, 5, 6]

    def test_rejects_more_than_minority(self):
        with pytest.raises(ConfigurationError):
            coordinator_crash_scenario(7, params=make_params(), num_faulty=4)

    def test_zero_faulty_allowed(self):
        scenario = coordinator_crash_scenario(5, params=make_params(), num_faulty=0)
        assert scenario.fault_plan.final_down() == set()


class TestRestartScenario:
    def test_restarts_scheduled_after_ts(self):
        scenario = restart_after_stability_scenario(
            7, params=make_params(), ts=10.0, restart_offsets=[5.0, 20.0]
        )
        restarts = [event for event in fault_events(scenario.fault_plan) if event.kind.value == "restart"]
        assert [event.time for event in restarts] == [15.0, 30.0]
        scenario.fault_plan.validate(7, ts=10.0)
        assert scenario.deciders() == list(range(7))

    def test_offsets_truncated_to_minority(self):
        scenario = restart_after_stability_scenario(
            3, params=make_params(), restart_offsets=[1.0, 2.0, 3.0]
        )
        assert len(scenario.fault_plan.final_down()) == 0
        assert len([e for e in fault_events(scenario.fault_plan) if e.kind.value == "crash"]) == 1

    def test_rejects_tiny_system(self):
        with pytest.raises(ConfigurationError):
            restart_after_stability_scenario(2, params=make_params())
