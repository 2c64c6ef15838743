"""E4 — Modified B-Consensus decision lag after stabilization vs. N (claim C5).

Shape expectation: flat in N and O(δ) ("about the same as the modified Paxos
algorithm" per Section 5 — within a small constant factor of its bound).
"""

from repro.core.timing import decision_bound
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e4_modified_bconsensus,
)


def test_e4_modified_bconsensus_scaling(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e4_modified_bconsensus)
    lags = [lag for lag in table.column("max_lag_delta") if lag is not None]
    assert len(lags) == 7
    assert sum(table.column("undecided")) == 0
    bound = decision_bound(params) / params.delta
    assert all(lag <= 2.0 * bound for lag in lags)
    assert max(lags) - min(lags) <= 12.0, "decision lag should not grow with N"
