"""E7 — The stable, failure-free fast path (claim C6).

Shape expectation: every protocol decides within a handful of message delays
(a few δ), an order of magnitude under the eventual-synchrony bound and with
no dependence on pre-stabilization machinery.
"""

from repro.core.timing import decision_bound
from repro.harness.experiments import default_experiment_params, experiment_e7_stable_case


def test_e7_stable_case(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e7_stable_case)
    lags = table.column("max_decision_delta")
    protocols = table.column("protocol")
    assert all(lag is not None for lag in lags)
    bound = decision_bound(params) / params.delta
    for protocol, lag in zip(protocols, lags):
        assert lag < bound, f"{protocol} should be far below the eventual-synchrony bound"
        assert lag <= 10.0, f"{protocol} stable-case decision should take only a few delta"
    # The Paxos-family cold start is ~4 message delays.
    paxos_lag = dict(zip(protocols, lags))["modified-paxos"]
    assert paxos_lag <= 6.0
