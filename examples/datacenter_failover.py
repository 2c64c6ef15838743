#!/usr/bin/env python3
"""Scenario: datacenter failover with stragglers rejoining after recovery.

A cluster agrees on a configuration epoch ("which datacenter is active")
after a rolling outage.  Some nodes were down when the network stabilized
and only come back minutes later — the paper's "process restarts after TS"
case.  The claim reproduced here (Section 4, *Process Restarts*) is that a
node rejoining at time ``T' > TS`` catches up within ``O(δ)`` of ``T'``,
because decided nodes keep re-broadcasting the decision and the session
machinery folds the straggler back in within one session.

The example also shows what the straggler actually recovers from stable
storage (its ballot and the decision, once learnt).

Run with::

    python examples/datacenter_failover.py
"""

from repro import WORKLOADS, TimingParams, run_scenario
from repro.analysis.metrics import restart_recovery_lags
from repro.core.timing import restart_decision_bound

NODES = 7
PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
REJOIN_OFFSETS = [5.0, 25.0, 60.0]  # how long after stabilization each straggler returns


def main() -> None:
    scenario = WORKLOADS.create(
        "restarts", n=NODES, params=PARAMS, ts=10.0, seed=3, restart_offsets=REJOIN_OFFSETS
    )
    scenario.initial_values = [f"prefer-dc-{pid % 2}" for pid in range(NODES)]
    print(scenario.describe())
    print()

    result = run_scenario(scenario, "modified-paxos")
    print(f"cluster agreed on: {result.safety.decided_value!r}")
    print(f"everyone decided : {result.decided_all}")
    print()

    lags = restart_recovery_lags(result.simulator)
    bound = restart_decision_bound(PARAMS)
    print("straggler recovery (time from rejoin to decision):")
    restart_events = sorted(result.simulator.trace.filter(event="restart"), key=lambda e: e.time)
    for offset, event in zip(REJOIN_OFFSETS, restart_events):
        pid = event.pid
        lag = lags.get(pid)
        node = result.simulator.nodes[pid]
        print(
            f"  node {pid} rejoined at TS+{offset:>5.1f} delta -> decided {lag:5.2f} delta later "
            f"(bound ~{bound:.1f} delta, incarnation {node.incarnation}, "
            f"{node.storage.write_count} stable-storage writes)"
        )

    assert all(lag <= bound for lag in lags.values())
    print("\nevery straggler recovered within the restart bound, independent of when it rejoined")


if __name__ == "__main__":
    main()
