#!/usr/bin/env python3
"""Scenario: choosing the primary of a replicated lock service after an outage.

The motivating story behind "how fast after stability can we agree?" is a
replicated service that has just come out of a network incident: the
replicas must agree on a new primary (a single value — the classic use of
one consensus instance) and every second of disagreement is downtime.

This example compares, on the same outage profile, how quickly the paper's
Modified Paxos and the two classic baselines converge once the network heals
(the stabilization time ``TS``), and shows the baselines' failure modes:

* traditional Ω-driven Paxos is tripped up by obsolete high ballots left
  over from the outage (Section 2 of the paper);
* the rotating-coordinator algorithm burns a full timeout for every crashed
  coordinator (Section 3);
* Modified Paxos converges within its fixed ``O(δ)`` bound.

Run with::

    python examples/replicated_lock_service.py
"""

from repro import WORKLOADS, TimingParams, decision_bound, run_scenario

REPLICAS = 9
PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
CANDIDATE_PRIMARIES = [f"replica-{i}" for i in range(REPLICAS)]


def report(label: str, result) -> None:
    lag = result.max_lag_after_ts()
    decided = result.safety.decided_value
    print(f"{label:60s} new primary = {decided!s:12s} "
          f"agreed {lag:6.2f} delta after the network healed")


def main() -> None:
    print(f"electing a primary among {REPLICAS} lock-service replicas")
    print(f"paper bound for Modified Paxos: {decision_bound(PARAMS):.1f} delta\n")

    # 1. Generic messy outage: partitions, message loss, a couple of crashes.
    outage = WORKLOADS.create("partitioned-chaos", n=REPLICAS, params=PARAMS, ts=12.0, seed=7)
    outage.initial_values = CANDIDATE_PRIMARIES
    report("modified Paxos after a partition outage", run_scenario(outage, "modified-paxos"))

    # 2. The same story for traditional Paxos, with the outage having left
    #    obsolete high-ballot prepare messages in flight.
    stale_ballots = WORKLOADS.create("obsolete-ballots", n=REPLICAS, params=PARAMS, seed=7)
    stale_ballots.initial_values = CANDIDATE_PRIMARIES
    report(
        "traditional Paxos with stale ballots from crashed replicas",
        run_scenario(stale_ballots, "traditional-paxos"),
    )

    # 3. Rotating coordinator when the outage killed the replicas that
    #    coordinate the first rounds.
    dead_coordinators = WORKLOADS.create(
        "coordinator-crash", n=REPLICAS, params=PARAMS, seed=7, num_faulty=REPLICAS // 2
    )
    dead_coordinators.initial_values = CANDIDATE_PRIMARIES
    report(
        "rotating coordinator with the first coordinators crashed",
        run_scenario(dead_coordinators, "rotating-coordinator"),
    )

    print(
        "\nModified Paxos needs no leader oracle and no coordinator rotation, so the "
        "post-outage agreement time does not grow with the number of replicas."
    )


if __name__ == "__main__":
    main()
