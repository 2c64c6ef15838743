"""E2 — Traditional Paxos under obsolete high ballots: O(Nδ) (claim C2).

Shape expectation: ``max_lag_delta`` grows roughly linearly with the number
of obsolete ballots ``k = ⌈N/2⌉ − 1`` (about 2δ per obsolete ballot), and for
larger N it exceeds the flat Modified Paxos bound.
"""

from repro.harness.experiments import (
    default_experiment_params,
    experiment_e2_traditional_obsolete,
)


def test_e2_traditional_paxos_obsolete_ballots(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e2_traditional_obsolete)
    lags = table.column("max_lag_delta")
    ks = table.column("obsolete_k")
    assert all(lag is not None for lag in lags)
    # Monotone growth with k (allowing small noise between adjacent points).
    assert lags[-1] > lags[0] + 2.0
    # Roughly linear: at least ~1.5 delta per additional obsolete ballot overall.
    slope = (lags[-1] - lags[0]) / (ks[-1] - ks[0])
    assert slope >= 1.0, f"expected O(k*delta) growth, got slope {slope:.2f}"
    # The largest configuration must exceed the Modified Paxos bound — the
    # contrast the paper is about.
    assert lags[-1] > table.column("modified_bound_delta")[-1]
