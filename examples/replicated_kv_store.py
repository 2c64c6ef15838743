#!/usr/bin/env python3
"""Scenario: a replicated key/value store on multi-decree Modified Paxos.

This example uses the SMR extension (`repro.smr`): one ballot — and one
phase 1 — covers the whole command log, so during stable periods a write
submitted at the serving leader is learned by every replica after a single
phase-2 round (the paper's "3 message delays in the stable case"), while the
session machinery still guarantees `O(δ)` recovery if the period before
stabilization was hostile.

The run below drives a small key/value workload:

* a first batch of writes is submitted while the network is still partitioned
  (before `TS`) — they are replicated shortly after stabilization;
* a second batch is submitted to the leader during the stable period — they
  commit in a couple of message delays;
* at the end, every replica applies its log prefix to a fresh
  ``KeyValueStore`` and the digests are compared.

Run with::

    python examples/replicated_kv_store.py
"""

from repro import WORKLOADS, TimingParams, run_scenario
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.state_machine import KeyValueStore
from repro.smr.workload import ScheduleSpec

REPLICAS = 5
PARAMS = TimingParams(delta=1.0, rho=0.01, epsilon=0.5)
TS = 10.0


def build_schedule(survivor: int) -> ScheduleSpec:
    # Batch 1: submitted during the partition (before TS).
    early = [
        (survivor, 2.0 + index, f"early-{index}", ("set", f"user-{index}", f"signup-{index}"))
        for index in range(4)
    ]
    # Batch 2: submitted well after stabilization, at the same replica.
    late = [
        (survivor, TS + 20.0 + index, f"late-{index}", ("set", f"session-{index}", f"token-{index}"))
        for index in range(6)
    ]
    return ScheduleSpec(entries=tuple(early + late))


def main() -> None:
    scenario = WORKLOADS.create(
        "partitioned-chaos", n=REPLICAS, params=PARAMS, ts=TS, seed=21
    )
    survivor = scenario.deciders()[0]
    schedule = build_schedule(survivor)

    print(f"replicated KV store on {REPLICAS} replicas; {len(schedule.entries)} commands")
    print(f"client co-located with replica {survivor}; network heals at TS={TS:g}\n")

    builder = MultiPaxosSmrBuilder(schedule=schedule, machine_factory=KeyValueStore)
    outcome = run_scenario(scenario, builder).outcome

    print("command                when learned everywhere (relative to TS / to submission)")
    for command_id, record in sorted(outcome.commands.items()):
        learned = max(record.learned_times.values())
        print(
            f"  {command_id:10s}  submitted t={record.submit_time:6.2f}  "
            f"learned everywhere at TS{learned - TS:+7.2f}   "
            f"(latency {record.global_latency:5.2f} delta)"
        )

    print()
    print(f"all commands replicated everywhere: {outcome.all_commands_learned_everywhere}")
    print(f"replica state machines identical  : {outcome.replicas_agree}")
    print(f"decided log prefix per replica    : {outcome.prefix_lengths}")

    late = [rec.global_latency for cid, rec in outcome.commands.items() if cid.startswith("late-")]
    print(f"stable-period write latency        : worst {max(late):.2f} delta "
          f"(~3 message delays, as the paper's stable case predicts)")


if __name__ == "__main__":
    main()
