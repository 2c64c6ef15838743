"""E9 — Multi-decree extension: stable-case command latency (claim C6, §4).

The paper's "Reducing Message Complexity" discussion says that with phase 1
executed in advance for all instances, all nonfaulty processes decide within
3 message delays when the system is stable, and that the modified algorithm
can be configured to behave the same way.  The multi-decree SMR layer
(:mod:`repro.smr`) implements exactly that configuration; this benchmark
measures per-command latency in the stable case (commands at the established
leader vs. at a follower) and after a hostile pre-stabilization period.

Shape expectation: leader-submitted commands are learned everywhere within
~3 maximum message delays, follower-submitted ones within ~4 (one forwarding
hop more); commands riding through pre-`TS` chaos are all learned within the
eventual-synchrony bound after `TS`.
"""

from repro.core.timing import decision_bound
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e9_smr_stable_case,
)


def test_e9_smr_stable_case(experiment_runner):
    params = default_experiment_params()
    table = experiment_runner(experiment_e9_smr_stable_case)
    leader_row, follower_row, chaos_row = table.rows
    assert leader_row["worst_global_latency_delta"] <= 3.0
    assert follower_row["worst_global_latency_delta"] <= 4.0
    assert chaos_row["worst_global_latency_delta"] <= 2.0 * decision_bound(params) / params.delta
