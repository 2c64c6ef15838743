"""E8 — The cross-protocol comparison table.

Shape expectation: under the identical chaos workload the modified
algorithms stay flat as N grows; under their specific worst-case adversaries
the two baselines grow with N and overtake the modified algorithms.
"""

from collections import defaultdict

from repro.core.timing import decision_bound
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e8_protocol_comparison,
)


def test_e8_protocol_comparison(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e8_protocol_comparison)
    bound = decision_bound(params) / params.delta

    by_protocol = defaultdict(dict)
    for row in table.rows:
        by_protocol[row["protocol"]][row["n"]] = row

    # Modified algorithms: decided everywhere, flat, within (2x of) the bound.
    for protocol, factor in (("modified-paxos", 1.0), ("modified-b-consensus", 2.0)):
        rows = by_protocol[protocol]
        lags = [rows[n]["chaos_lag_delta"] for n in (5, 9, 15)]
        assert all(lag is not None and lag <= factor * bound for lag in lags)

    # Baselines under their adversarial workloads: grow with N.
    trad = [by_protocol["traditional-paxos"][n]["adversarial_lag_delta"] for n in (5, 9, 15)]
    rot = [by_protocol["rotating-coordinator"][n]["adversarial_lag_delta"] for n in (5, 9, 15)]
    assert trad[2] > trad[0]
    assert rot[2] > rot[0]
    # And at the largest size the baselines are slower than Modified Paxos under chaos.
    modified_largest = by_protocol["modified-paxos"][15]["chaos_lag_delta"]
    assert trad[2] > modified_largest
    assert rot[2] > modified_largest
