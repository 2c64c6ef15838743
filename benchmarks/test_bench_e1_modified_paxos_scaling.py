"""E1 — Modified Paxos decision lag after stabilization vs. N (claim C1).

Shape expectation: the ``max_lag_delta`` column stays flat as N grows and
every entry is below the analytic bound ``ε + 3τ + 5δ`` (≈ 17–18 δ).
"""

from repro.core.timing import decision_bound
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e1_modified_paxos_scaling,
)


def test_e1_modified_paxos_scaling(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e1_modified_paxos_scaling)
    bound = decision_bound(params) / params.delta
    lags = [lag for lag in table.column("max_lag_delta") if lag is not None]
    assert len(lags) == 9, "every system size must reach a decision"
    assert all(lag <= bound for lag in lags), "measured lag must respect the paper bound"
    assert sum(table.column("undecided")) == 0
    # Flat in N: the largest system is not meaningfully slower than the smallest.
    assert max(lags) - min(lags) <= 10.0, "decision lag should not grow with N"
