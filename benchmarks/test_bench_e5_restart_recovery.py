"""E5 — Recovery lag of processes restarting after stabilization (claim C4).

Shape expectation: every recovery lag is O(δ) — far below the composite
bound — regardless of how long after ``TS`` the restart happens.
"""

from repro.core.timing import restart_decision_bound
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e5_restart_recovery,
)


def test_e5_restart_recovery(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e5_restart_recovery)
    recoveries = table.column("max_recovery_delta")
    assert all(value is not None for value in recoveries)
    bound = restart_decision_bound(params) / params.delta
    assert all(value <= bound for value in recoveries)
    # Recovery does not degrade for later restarts (decision re-broadcasts
    # keep it constant).
    assert max(recoveries) - min(recoveries) <= bound
