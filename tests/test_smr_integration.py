"""Integration tests of the SMR layer: end-to-end replication through the simulator."""

import pytest

from repro.core.timing import decision_bound
from repro.faults.plan import FaultPlan
from repro.harness.runner import run_scenario
from repro.sim.rng import SeededRng
from repro.sim.simulator import Simulator
from repro.smr.metrics import check_log_consistency
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.state_machine import AppendOnlyLedger
from repro.smr.workload import ScheduleSpec
from repro.workloads.chaos import partitioned_chaos_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params

PARAMS = make_params(rho=0.01)


class TestStableReplication:
    def test_all_commands_replicated_and_states_agree(self):
        scenario = stable_scenario(5, params=PARAMS, seed=1, max_time=300.0)
        schedule = ScheduleSpec(num_commands=15, start=10.0, interval=1.0)
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere
        assert result.outcome.replicas_agree
        assert result.outcome.consistency_checks > 0
        assert all(length >= 15 for length in result.outcome.prefix_lengths.values())

    def test_stable_case_latency_is_a_few_message_delays(self):
        """The paper's 'three message delays in the stable case' claim (C6)."""
        scenario = stable_scenario(5, params=PARAMS, seed=2, max_time=300.0)
        # Submit at the established leader (the owner of the highest initial
        # ballot, process n-1), measuring the pure fast path.
        schedule = ScheduleSpec(num_commands=10, start=10.0, interval=1.0, target_pid=4)
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere
        # Global learning within 3 maximum message delays; typical delays are
        # ~0.55 delta so this is also about 3 average delays.
        assert result.outcome.worst_global_latency() <= 3.0 * PARAMS.delta
        assert result.outcome.worst_submitter_latency() <= 2.0 * PARAMS.delta

    def test_forwarded_commands_cost_at_most_one_extra_delay(self):
        scenario = stable_scenario(5, params=PARAMS, seed=3, max_time=300.0)
        schedule = ScheduleSpec(num_commands=10, start=10.0, interval=1.0, target_pid=0)
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere
        assert result.outcome.worst_global_latency() <= 4.0 * PARAMS.delta

    def test_ledger_replicas_apply_identical_sequences(self):
        scenario = stable_scenario(5, params=PARAMS, seed=4, max_time=300.0)
        schedule = ScheduleSpec(num_commands=12, start=10.0, interval=0.5)
        builder = MultiPaxosSmrBuilder(schedule, machine_factory=AppendOnlyLedger)
        result = run_scenario(scenario, builder)
        assert result.outcome.replicas_agree

    def test_no_commands_is_a_quiet_system(self):
        scenario = stable_scenario(3, params=PARAMS, seed=5, max_time=40.0)
        result = run_scenario(scenario, MultiPaxosSmrBuilder())
        assert result.outcome.commands == {}
        assert check_log_consistency(result.simulator) >= 0


class TestReplicationUnderChaos:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_commands_submitted_before_stability_replicate_after_it(self, seed):
        scenario = partitioned_chaos_scenario(7, params=PARAMS, ts=8.0, seed=seed)
        survivors = scenario.deciders()
        schedule = ScheduleSpec(num_commands=6, start=1.0, interval=1.0, target_pid=survivors[0])
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere
        assert result.outcome.replicas_agree
        # Everything is learned within the eventual-synchrony bound of TS
        # (commands were submitted before TS, so lag is measured against TS).
        for record in result.outcome.commands.values():
            learned = max(record.learned_times.values())
            assert learned - scenario.config.ts <= 2.0 * decision_bound(PARAMS)

    def test_post_stability_commands_have_small_latency(self):
        scenario = partitioned_chaos_scenario(5, params=PARAMS, ts=8.0, seed=3)
        survivors = scenario.deciders()
        schedule = ScheduleSpec(num_commands=5, start=35.0, interval=1.0, target_pid=survivors[0])
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere
        assert result.outcome.worst_global_latency() <= 8.0 * PARAMS.delta


class TestLeaderFailover:
    def test_leader_crash_before_stability_does_not_lose_commands(self):
        """Commands accepted by a leader that then crashes are recovered via phase 1."""
        params = PARAMS
        ts = 6.0
        scenario = stable_scenario(5, params=params, seed=7, max_time=400.0)
        # Rebuild as an eventually-synchronous scenario with a crash of the
        # initial leader (process 4, owner of the highest initial ballot)
        # shortly after it starts serving, before TS.
        chaos = partitioned_chaos_scenario(5, params=params, ts=ts, seed=7)
        chaos.fault_plan = FaultPlan().crash(4, 3.0)  # p4 is down for good: p0..p3 decide
        schedule = ScheduleSpec(num_commands=4, start=1.0, interval=0.4, target_pid=0)
        result = run_scenario(chaos, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.replicas_agree
        expected = set(chaos.deciders())
        for record in result.outcome.commands.values():
            assert expected.issubset(record.learned_times.keys())
        assert scenario is not None  # silence linters about the unused stable scenario


class TestRestartedReplicaCatchUp:
    def test_replica_restarting_after_ts_catches_up_on_the_log(self):
        params = PARAMS
        ts = 8.0
        scenario = partitioned_chaos_scenario(5, params=params, ts=ts, seed=9)
        scenario.fault_plan = FaultPlan().crash(2, 2.0).restart(2, ts + 15.0)
        schedule = ScheduleSpec(num_commands=6, start=1.0, interval=1.0, target_pid=0)
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere
        assert result.outcome.replicas_agree
        node = result.simulator.nodes[2]
        assert node.incarnation == 2
        assert result.outcome.prefix_lengths[2] >= 6


class TestCrashRecoveryFromStableStorage:
    def test_restart_recovers_accepted_but_undecided_slots(self):
        """Crash a replica mid-stream, holding a vote for a slot it has not learned."""
        scenario = stable_scenario(5, params=PARAMS, seed=4, max_time=100.0)
        config = scenario.config
        builder = MultiPaxosSmrBuilder(
            schedule=ScheduleSpec(num_commands=6, start=1.0, interval=0.5, target_pid=4)
        )
        simulator = Simulator(
            config=config,
            process_factory=builder.create,
            network=scenario.build_network(config, SeededRng(config.seed, label="net").fork(scenario.name)),
        )
        builder.attach(simulator)

        def replica_with_open_vote():
            for pid, node in sorted(simulator.nodes.items()):
                process = node.process
                if process is not None and set(process.accepted) - set(process.log.snapshot()):
                    return pid, process
            return None, None

        pid, process = replica_with_open_vote()
        while process is None or len(process.log.snapshot()) < 2:
            processed = simulator.events_processed
            simulator.run(max_events=1)
            assert simulator.events_processed > processed, "no replica ever held an undecided vote"
            pid, process = replica_with_open_vote()
        before = (process.mbal, dict(process.accepted), process.log.snapshot())

        simulator.crash(pid)
        simulator.restart(pid)
        restarted = simulator.nodes[pid].process
        assert restarted is not process
        assert (restarted.mbal, restarted.accepted, restarted.log.snapshot()) == before
