"""The unified SMR pipeline (PR 5): declarative tasks, executors, E9 parity.

The tentpole contract: SMR is a first-class workload family — declarative
:class:`SmrTask`\\ s run through the same executors as single-decree tasks,
parallel equals serial, and the registry-routed E9 produces byte-identical
tables (and replica digests) to the retired side harness that drove
each run directly.
"""

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.harness.executors import (
    ParallelExecutor,
    SerialExecutor,
    SmrTask,
    execute_task,
    machine_factory_for,
)
from repro.harness.experiment import ResultRow, run_smr_tasks
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e9_smr_stable_case,
)
from repro.harness.runner import run_scenario
from repro.harness.tables import ExperimentTable
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.outcome import SmrOutcome, digest_string, snapshot_smr_outcome
from repro.smr.workload import CommandSchedule, ScheduleSpec, uniform_schedule
from repro.workloads.chaos import partitioned_chaos_scenario
from repro.workloads.environments import (
    asymmetric_link_scenario,
    churn_scenario,
    gray_partition_scenario,
)
from repro.workloads.registry import WORKLOADS
from repro.workloads.smr import SMR_WORKLOADS, is_smr_workload
from repro.workloads.stable import stable_scenario

PARAMS = default_experiment_params()


def stable_task(n=3, seed=1, commands=4, target_pid=None, **kwargs) -> SmrTask:
    return SmrTask(
        workload="smr-stable",
        workload_kwargs={"n": n, "params": PARAMS, "seed": seed, **kwargs},
        schedule=ScheduleSpec(num_commands=commands, start=10.0, interval=0.7,
                              target_pid=target_pid),
        tags={"seed": seed},
    )


class TestScheduleSpec:
    def test_uniform_matches_generator(self):
        spec = ScheduleSpec(num_commands=5, start=2.0, interval=0.5, target_pid=1)
        assert spec.to_schedule(3).entries == uniform_schedule(
            3, num_commands=5, start=2.0, interval=0.5, target_pid=1
        ).entries

    def test_explicit_entries(self):
        spec = ScheduleSpec(entries=((0, 1.0, "a", ("set", "k", "v")),))
        schedule = spec.to_schedule(2)
        assert schedule.for_pid(0) == [(1.0, "a", ("set", "k", "v"))]
        assert spec.total_commands == 1

    def test_modes_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ScheduleSpec(num_commands=2, entries=((0, 1.0, "a", "x"),))

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec(num_commands=-1)

    def test_entry_pid_validated_against_n(self):
        spec = ScheduleSpec(entries=((5, 1.0, "a", "x"),))
        with pytest.raises(ConfigurationError, match="out of range"):
            spec.to_schedule(3)


class TestSmrWorkloadFamily:
    def test_every_smr_workload_is_registered(self):
        assert set(SMR_WORKLOADS) <= set(WORKLOADS)
        assert all(is_smr_workload(name) for name in SMR_WORKLOADS)
        assert not is_smr_workload("stable")

    def test_smr_stable_preserves_scenario_identity(self):
        """Same scenario name → same RNG fork → trace-identical runs."""
        via_registry = WORKLOADS.create(
            "smr-stable", n=5, params=PARAMS, seed=1
        )
        direct = stable_scenario(5, params=PARAMS, seed=1, max_time=400.0 * PARAMS.delta)
        assert via_registry.name == direct.name
        assert via_registry.config == direct.config

    @pytest.mark.parametrize("alias, factory, defaults", [
        ("smr-stable", stable_scenario, {"max_time": 400.0 * PARAMS.delta}),
        ("smr-chaos", partitioned_chaos_scenario, {}),
        ("smr-churn", churn_scenario, {"waves": 2}),
        ("smr-gray-partition", gray_partition_scenario, {}),
        ("smr-asymmetric-link", asymmetric_link_scenario, {}),
    ])
    def test_smr_alias_builds_its_single_decree_scenario(self, alias, factory, defaults):
        kwargs = {"n": 5, "params": PARAMS, "seed": 3}
        via_alias = WORKLOADS.create(alias, **kwargs)
        direct = factory(**kwargs, **defaults)
        assert via_alias.name == direct.name
        assert via_alias.config == direct.config
        assert via_alias.environment.to_dict() == direct.environment.to_dict()
        assert via_alias.deciders() == direct.deciders()

    def test_smr_churn_runs_two_waves_and_smr_stable_has_a_400_delta_horizon(self):
        churn = WORKLOADS.create("smr-churn", n=5, params=PARAMS, seed=1)
        assert churn.environment.faults.params["waves"] == 2
        assert churn.name == "churn-n5-w2"
        stable = WORKLOADS.create("smr-stable", n=5, params=PARAMS, seed=1)
        assert stable.config.max_time == 400.0 * PARAMS.delta

    @pytest.mark.parametrize("workload", SMR_WORKLOADS)
    def test_every_smr_workload_replicates_commands(self, workload):
        task = SmrTask(
            workload=workload,
            workload_kwargs={"n": 3, "params": PARAMS, "seed": 2},
            schedule=ScheduleSpec(num_commands=2, start=12.0, interval=1.0),
        )
        outcome = task.execute()
        assert outcome.all_commands_learned_everywhere
        assert outcome.replicas_agree
        assert outcome.worst_global_latency() is not None


class TestExecutorIntegration:
    def test_execute_task_dispatches_on_kind(self):
        outcome = execute_task(stable_task())
        assert isinstance(outcome, SmrOutcome)

    def test_serial_executor_matches_direct_snapshot(self):
        task = stable_task()
        scenario = WORKLOADS.create(
            task.workload, **dict(task.workload_kwargs)
        )
        direct = snapshot_smr_outcome(
            run_scenario(scenario, task.builder(scenario.config.n)),
            workload=task.workload,
        )
        assert list(SerialExecutor().imap([task])) == [direct]

    def test_parallel_equals_serial(self):
        tasks = [stable_task(seed=seed) for seed in (1, 2, 3)]
        serial = list(SerialExecutor().imap(tasks))
        with ParallelExecutor(jobs=2) as pool:
            parallel = list(pool.imap(tasks))
        assert parallel == serial

    def test_jobs_leaves_no_worker_processes(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        rows = run_smr_tasks([stable_task(seed=seed) for seed in (1, 2)], jobs=2)
        assert len(rows) == 2
        assert set(multiprocessing.active_children()) - before == set()

    def test_mixed_batches_execute_both_kinds(self):
        from repro.harness.executors import RunTask

        run = RunTask(protocol="modified-paxos", workload="stable",
                      workload_kwargs={"n": 3, "params": PARAMS, "seed": 1})
        smr = stable_task()
        outcomes = list(SerialExecutor().imap([run, smr]))
        assert outcomes[0].protocol == "modified-paxos"
        assert isinstance(outcomes[1], SmrOutcome)

    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown state machine"):
            machine_factory_for("bogus")

    def test_ledger_machine_runs(self):
        task = SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": 3, "params": PARAMS, "seed": 1},
            schedule=ScheduleSpec(num_commands=2, start=10.0, interval=0.7),
            machine="ledger",
        )
        outcome = task.execute()
        assert outcome.replicas_agree and outcome.all_commands_learned_everywhere


class TestDigestSemantics:
    def test_replicas_agree_compares_values_not_reprs(self):
        """Digest agreement must not depend on repr formatting."""
        outcome = SmrOutcome(workload="w", n=2, ts=0.0, delta=1.0, seed=0,
                             digests={0: "abc", 1: "abc"})
        assert outcome.replicas_agree
        outcome.digests[1] = "abd"
        assert not outcome.replicas_agree

    def test_digest_string_is_deterministic(self):
        value = (("a", 1), ("b", "x"))
        assert digest_string(value) == digest_string((("a", 1), ("b", "x")))
        assert digest_string(value) != digest_string((("a", 2), ("b", "x")))


class TestScheduleHorizonValidation:
    def test_submission_past_horizon_fails_loudly(self):
        scenario = stable_scenario(3, params=PARAMS, seed=1, max_time=20.0)
        schedule = CommandSchedule().add(0, 25.0, "late-cmd", ("set", "k", "v"))
        with pytest.raises(ConfigurationError, match="late-cmd") as excinfo:
            run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert "25" in str(excinfo.value) and "20" in str(excinfo.value)

    def test_submission_at_horizon_is_allowed(self):
        scenario = stable_scenario(3, params=PARAMS, seed=1, max_time=200.0)
        schedule = CommandSchedule().add(0, 12.0, "ok-cmd", ("set", "k", "v"))
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_commands_learned_everywhere


class TestLatencyErrorReporting:
    def test_empty_outcome_raises_naming_unlearned_commands(self):
        from repro.harness.experiments import _smr_latencies

        outcome = SmrOutcome(workload="w", n=3, ts=0.0, delta=1.0, seed=0,
                             expected_replicas=(0, 1, 2),
                             scheduled_command_ids=("cmd-0000", "cmd-0001"))
        with pytest.raises(ExperimentError, match="cmd-0000, cmd-0001"):
            _smr_latencies("case", outcome)

    def test_unlearned_ids_reports_partial_coverage(self):
        from repro.smr.metrics import CommandRecord

        outcome = SmrOutcome(
            workload="w", n=2, ts=0.0, delta=1.0, seed=0,
            expected_replicas=(0, 1),
            scheduled_command_ids=("a", "b"),
            commands={"a": CommandRecord(command_id="a", origin=0, submit_time=1.0,
                                         learned_times={0: 2.0, 1: 2.5})},
        )
        assert outcome.unlearned_command_ids() == ["b"]
        assert not outcome.all_commands_learned_everywhere


class TestE9Parity:
    """E9 through the unified pipeline equals the retired side harness."""

    N, STABLE, CHAOS = 5, 6, 3

    def side_harness_table(self) -> str:
        from repro.workloads.chaos import partitioned_chaos_scenario

        delta = PARAMS.delta
        table = ExperimentTable(
            experiment="E9",
            title=f"Multi-decree Modified Paxos (SMR, n={self.N}): per-command latency",
            headers=["case", "commands", "worst_submitter_latency_delta",
                     "worst_global_latency_delta"],
            notes=(
                "stable cases measure the phase-1-pre-executed fast path (leader ~3 message "
                "delays, follower +1 forwarding delay); the chaos case measures commands "
                "submitted before TS and replicated once the system stabilizes"
            ),
        )
        leader = run_scenario(
            stable_scenario(self.N, params=PARAMS, seed=1, max_time=400.0 * delta),
            MultiPaxosSmrBuilder(uniform_schedule(self.N, num_commands=self.STABLE, start=10.0,
                                                  interval=0.7, target_pid=self.N - 1)),
        ).outcome
        table.add_row(case="stable, submitted at leader", commands=self.STABLE,
                      worst_submitter_latency_delta=leader.worst_submitter_latency() / delta,
                      worst_global_latency_delta=leader.worst_global_latency() / delta)
        follower = run_scenario(
            stable_scenario(self.N, params=PARAMS, seed=2, max_time=400.0 * delta),
            MultiPaxosSmrBuilder(uniform_schedule(self.N, num_commands=self.STABLE, start=10.0,
                                                  interval=0.7, target_pid=0)),
        ).outcome
        table.add_row(case="stable, submitted at follower", commands=self.STABLE,
                      worst_submitter_latency_delta=follower.worst_submitter_latency() / delta,
                      worst_global_latency_delta=follower.worst_global_latency() / delta)
        chaos_scenario = partitioned_chaos_scenario(self.N, params=PARAMS,
                                                    ts=10.0 * delta, seed=3)
        chaos = run_scenario(
            chaos_scenario,
            MultiPaxosSmrBuilder(uniform_schedule(self.N, num_commands=self.CHAOS, start=1.0,
                                                  interval=0.8, target_pid=chaos_scenario.deciders()[0])),
        ).outcome
        worst_after_ts = max(
            max(record.learned_times.values()) - chaos_scenario.config.ts
            for record in chaos.commands.values()
        )
        table.add_row(case="pre-TS submissions, learned after TS", commands=self.CHAOS,
                      worst_submitter_latency_delta=None,
                      worst_global_latency_delta=worst_after_ts / delta)
        return table.render()

    def test_e9_table_byte_identical_to_side_harness(self):
        pipeline = experiment_e9_smr_stable_case(
            n=self.N, stable_commands=self.STABLE, chaos_commands=self.CHAOS
        ).render()
        assert pipeline == self.side_harness_table()

    def test_e9_parallel_equals_serial(self):
        serial = experiment_e9_smr_stable_case(
            n=self.N, stable_commands=self.STABLE, chaos_commands=self.CHAOS
        )
        with ParallelExecutor(jobs=3) as pool:
            parallel = experiment_e9_smr_stable_case(
                n=self.N, stable_commands=self.STABLE, chaos_commands=self.CHAOS,
                executor=pool,
            )
        assert parallel.render() == serial.render()

    def test_seeded_digests_identical_to_side_harness(self):
        delta = PARAMS.delta
        direct = run_scenario(
            stable_scenario(self.N, params=PARAMS, seed=1, max_time=400.0 * delta),
            MultiPaxosSmrBuilder(uniform_schedule(self.N, num_commands=self.STABLE, start=10.0,
                                                  interval=0.7, target_pid=self.N - 1)),
        )
        outcome = SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": self.N, "params": PARAMS, "seed": 1},
            schedule=ScheduleSpec(num_commands=self.STABLE, start=10.0, interval=0.7,
                                  target_pid=self.N - 1),
        ).execute()
        assert outcome.digests == direct.outcome.digests
        assert outcome.prefix_lengths == direct.outcome.prefix_lengths


class TestRunSmrTasks:
    def test_rows_pair_each_task_with_its_outcome(self):
        tasks = [stable_task(seed=1), stable_task(seed=2)]
        rows = run_smr_tasks(tasks)
        assert all(isinstance(row, ResultRow) for row in rows)
        assert [row.task for row in rows] == tasks
        assert [row.tag("seed") for row in rows] == [1, 2]
        assert [row.outcome for row in rows] == [task.execute() for task in tasks]
        assert rows[0].environment == rows[0].outcome.extra["environment"]

    def test_run_smr_tasks_rejects_executor_and_jobs(self):
        with pytest.raises(ExperimentError, match="not both"):
            run_smr_tasks([stable_task()], executor=SerialExecutor(), jobs=2)
