"""E3 — Rotating coordinator with crashed coordinators: O(fδ) (claim C3).

Shape expectation: ``max_lag_delta`` grows roughly linearly in the number of
crashed coordinators ``f`` (about one 4δ round timeout each) and exceeds the
Modified Paxos bound once ``f`` is large.
"""

from repro.harness.experiments import (
    default_experiment_params,
    experiment_e3_rotating_coordinator,
)


def test_e3_rotating_coordinator_faulty_sweep(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e3_rotating_coordinator)
    lags = table.column("max_lag_delta")
    fs = table.column("faulty_f")
    assert all(lag is not None for lag in lags)
    assert lags[-1] > lags[0]
    slope = (lags[-1] - lags[0]) / (fs[-1] - fs[0])
    assert slope >= 2.0, f"expected roughly one round timeout per crashed coordinator, got {slope:.2f}"
    assert lags[-1] > table.column("modified_bound_delta")[-1]
