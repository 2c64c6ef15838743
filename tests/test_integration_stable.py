"""Integration: every protocol solves consensus in the stable, failure-free case (E7)."""

import pytest

from repro.consensus.registry import PROTOCOLS
from repro.core.timing import decision_bound
from repro.harness.runner import run_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params

ALL_PROTOCOLS = [
    "modified-paxos",
    "traditional-paxos",
    "rotating-coordinator",
    "b-consensus",
    "modified-b-consensus",
]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("n", [3, 4, 7])
def test_all_protocols_decide_safely_when_stable(protocol, n):
    params = make_params(rho=0.01)
    result = run_scenario(stable_scenario(n, params=params, seed=11), protocol)
    assert result.decided_all
    assert result.safety.valid
    # A decided value must be one of the proposals (validity re-checked here
    # on top of the spec for explicitness).
    decided = {record.value for record in result.simulator.decisions.values()}
    assert len(decided) == 1
    assert decided.pop() in result.simulator.proposals.values()


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_stable_case_is_fast(protocol):
    """Failure-free decisions take a handful of message delays, well below the bound."""
    params = make_params(rho=0.01)
    result = run_scenario(stable_scenario(5, params=params, seed=3), protocol)
    lag = result.max_lag_after_ts()
    assert lag is not None
    assert lag <= 10.0 * params.delta
    assert lag <= decision_bound(params)


@pytest.mark.parametrize("protocol", ["modified-paxos", "modified-b-consensus"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_stable_case_across_seeds(protocol, seed):
    params = make_params(rho=0.02)
    result = run_scenario(stable_scenario(5, params=params, seed=seed), protocol)
    assert result.decided_all
    assert result.safety.valid


def test_all_registered_protocols_covered_by_these_tests():
    assert set(PROTOCOLS) == set(ALL_PROTOCOLS)


def test_identical_proposals_decide_that_value():
    params = make_params()
    scenario = stable_scenario(5, params=params, seed=2)
    scenario.initial_values = ["same"] * 5
    result = run_scenario(scenario, "modified-paxos")
    decided = {record.value for record in result.simulator.decisions.values()}
    assert decided == {"same"}
