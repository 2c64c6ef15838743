#!/usr/bin/env python3
"""Quickstart: run Modified Paxos through a hostile pre-stabilization period.

This is the smallest end-to-end use of the library:

1. resolve a workload by name through the scenario registry
   (``partitioned-chaos``): before the unknown stabilization time ``TS``
   the network keeps the processes split into minority groups, loses most
   messages, and crashes/restarts a minority; after ``TS`` every message
   arrives within ``δ``;
2. run the paper's session-based Modified Paxos on it;
3. check safety and print how long after ``TS`` each process decided,
   compared with the paper's analytic bound ``ε + 3τ + 5δ`` (≈ 17–18 δ).

Run with::

    python examples/quickstart.py
"""

from repro import WORKLOADS, TimingParams, decision_bound, run_scenario


def main() -> None:
    params = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
    ts = 10.0  # the processes do not know this; the harness does
    scenario = WORKLOADS.create("partitioned-chaos", n=7, params=params, ts=ts, seed=42)

    print(scenario.describe())
    print()

    result = run_scenario(scenario, "modified-paxos")

    print(f"safety: {'OK' if result.safety.valid else result.safety.violations}")
    print(f"decided value: {result.safety.decided_value!r}")
    stats = result.simulator.network.monitor.stats
    print(f"messages sent: {result.outcome.messages_sent} "
          f"(of which {stats.sent_post_ts} after TS)")
    print()
    print("per-process decision times (relative to TS):")
    for pid in sorted(result.simulator.decisions):
        record = result.simulator.decisions[pid]
        lag = record.time - ts
        print(f"  p{pid}: decided {record.value!r} at TS{lag:+.2f} delta")

    bound = decision_bound(params)
    worst = result.max_lag_after_ts()
    print()
    print(f"worst decision lag after TS : {worst:.2f} delta")
    print(f"paper bound (eps + 3tau + 5delta): {bound:.2f} delta")
    assert worst is not None and worst <= bound, "measured lag should respect the bound"


if __name__ == "__main__":
    main()
