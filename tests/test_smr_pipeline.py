"""The unified SMR pipeline (PR 5): declarative tasks, executors, E9 parity.

The tentpole contract: SMR is a first-class workload family — declarative
:class:`SmrTask`\\ s run through the same executors as single-decree tasks,
parallel equals serial, and the registry-routed E9 produces byte-identical
tables (and replica digests) to the retired side harness that drove
each run directly.
"""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.harness.executors import (
    ParallelExecutor,
    SerialExecutor,
    SmrTask,
    execute_task,
)
from repro.harness.experiment import ResultRow, ResultSet, run_smr_tasks
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e9_smr_stable_case,
)
from repro.harness.runner import run_scenario
from repro.harness.tables import ExperimentTable
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.outcome import SmrOutcome, digest_string, snapshot_smr_outcome
from repro.smr.workload import ScheduleSpec
from repro.workloads.chaos import partitioned_chaos_scenario
from repro.workloads.environments import (
    asymmetric_link_scenario,
    churn_scenario,
    gray_partition_scenario,
)
from repro.workloads.registry import WORKLOADS
from repro.workloads.smr import SMR_WORKLOADS, is_smr_workload
from repro.workloads.stable import stable_scenario
from tests.helpers import run_plan

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
    def test_uniform_expansion(self):
        spec = ScheduleSpec(num_commands=3, start=2.0, interval=0.5, target_pid=1)
        assert spec.expand(3) == {1: [
            (2.0, "cmd-0000", ("set", "key-0", "value-0")),
            (2.5, "cmd-0001", ("set", "key-1", "value-1")),
            (3.0, "cmd-0002", ("set", "key-2", "value-2")),
        ]}

    def test_explicit_entries(self):
        spec = ScheduleSpec(entries=((0, 1.0, "a", ("set", "k", "v")),))
        assert spec.expand(2) == {0: [(1.0, "a", ("set", "k", "v"))]}

    def test_modes_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ScheduleSpec(num_commands=2, entries=((0, 1.0, "a", "x"),))

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec(num_commands=-1)

    @pytest.mark.parametrize("field", ["start", "interval"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ScheduleSpec(num_commands=2, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_time_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            ScheduleSpec(entries=((0, value, "a", "x"),))

    def test_duplicate_command_ids_rejected(self):
        # Both would be logged as one command, so the second one would be lost.
        with pytest.raises(ConfigurationError, match="'c1' twice"):
            ScheduleSpec(entries=((0, 10.0, "c1", ("set", "a", 1)), (1, 11.0, "c1", ("set", "b", 2))))

    def test_entry_pid_validated_against_n(self):
        spec = ScheduleSpec(entries=((5, 1.0, "a", "x"),))
        with pytest.raises(ConfigurationError, match="out of range"):
            spec.expand(3)


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
        assert outcome.all_decided
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
            run_scenario(scenario, task.builder()),
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


class TestRunResultOfAnSmrRun:
    """``decided_all`` and ``max_lag_after_ts()`` read an SMR run's commands."""

    def complete_and_cut_short(self):
        complete = SmrTask("smr-stable", ScheduleSpec(num_commands=2), {"n": 3}).run()
        # Submitted at 1.0 and 1.1, the run ends at 1.5: nobody learns either.
        cut = SmrTask("smr-stable", ScheduleSpec(num_commands=2, start=1.0, interval=0.1),
                      {"n": 3, "max_time": 1.5}).run()
        return complete, cut

    def test_decided_all_means_every_command_learned_everywhere(self):
        complete, cut = self.complete_and_cut_short()
        assert complete.decided_all
        assert not cut.decided_all
        assert cut.outcome.unlearned_command_ids() == ["cmd-0000", "cmd-0001"]

    def test_max_lag_after_ts_is_the_latest_learn_after_ts(self):
        complete, cut = self.complete_and_cut_short()
        outcome = complete.outcome
        latest = max(
            record.learned_times[pid]
            for record in outcome.commands.values() for pid in outcome.expected_replicas
        )
        assert outcome.ts == 0.0 and complete.max_lag_after_ts() == latest > 0
        assert cut.max_lag_after_ts() is None
        # Clamped at 0 when every command was learned before TS.
        assert learned_outcome().max_lag_after_ts() == 3.0
        assert dataclasses.replace(learned_outcome(), ts=10.0).max_lag_after_ts() == 0.0


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
        schedule = ScheduleSpec(entries=((0, 25.0, "late-cmd", ("set", "k", "v")),))
        with pytest.raises(ConfigurationError, match="late-cmd") as excinfo:
            run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert "25" in str(excinfo.value) and "20" in str(excinfo.value)

    def test_submission_at_horizon_is_allowed(self):
        scenario = stable_scenario(3, params=PARAMS, seed=1, max_time=200.0)
        schedule = ScheduleSpec(entries=((0, 12.0, "ok-cmd", ("set", "k", "v")),))
        result = run_scenario(scenario, MultiPaxosSmrBuilder(schedule))
        assert result.outcome.all_decided


def learned_outcome(partial: bool = False) -> SmrOutcome:
    """Two commands at three replicas; with ``partial``, p2 never learns cmd-0001."""
    from repro.smr.metrics import CommandRecord

    second = {0: 3.0, 1: 3.5} if partial else {0: 3.0, 1: 3.5, 2: 4.0}
    return SmrOutcome(
        workload="w", n=3, ts=1.0, delta=1.0, seed=0,
        expected_replicas=(0, 1, 2),
        scheduled_command_ids=("cmd-0000", "cmd-0001"),
        commands={
            "cmd-0000": CommandRecord(command_id="cmd-0000", origin=0, submit_time=1.0,
                                      learned_times={0: 2.0, 1: 2.5, 2: 2.5}),
            "cmd-0001": CommandRecord(command_id="cmd-0001", origin=0, submit_time=2.0,
                                      learned_times=second),
        },
        digests={0: "d", 1: "d", 2: "d"},
    )


class TestLatencyErrorReporting:
    @pytest.mark.parametrize("case", ["leader-submitted", "follower-submitted", "chaos"])
    def test_each_e9_case_names_its_unlearned_command(self, case):
        plan = experiment_e9_smr_stable_case(n=5, stable_commands=2, chaos_commands=2)
        rows = ResultSet(
            ResultRow(task, learned_outcome(partial=task.tags["case"] == case))
            for task in plan.tasks
        )
        with pytest.raises(ExperimentError, match=f"^{case}: .*: cmd-0001$"):
            plan.tabulate(rows)

    def test_a_case_without_commands_raises_instead_of_dividing_none(self):
        plan = experiment_e9_smr_stable_case(n=5, stable_commands=2, chaos_commands=2)
        empty = SmrOutcome(workload="w", n=3, ts=0.0, delta=1.0, seed=0,
                           expected_replicas=(0, 1, 2))
        rows = ResultSet(ResultRow(task, empty) for task in plan.tasks)
        with pytest.raises(ExperimentError, match="^leader-submitted: .*no latency"):
            plan.tabulate(rows)

    def test_complete_outcomes_tabulate(self):
        plan = experiment_e9_smr_stable_case(n=5, stable_commands=2, chaos_commands=2)
        table = plan.tabulate(ResultSet(ResultRow(task, learned_outcome()) for task in plan.tasks))
        assert [row["worst_global_latency_delta"] for row in table.rows] == [2.0, 2.0, 3.0]

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
        assert not outcome.all_decided


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
            MultiPaxosSmrBuilder(ScheduleSpec(num_commands=self.STABLE, start=10.0,
                                              interval=0.7, target_pid=self.N - 1)),
        ).outcome
        table.add_row(case="stable, submitted at leader", commands=self.STABLE,
                      worst_submitter_latency_delta=leader.worst_submitter_latency() / delta,
                      worst_global_latency_delta=leader.worst_global_latency() / delta)
        follower = run_scenario(
            stable_scenario(self.N, params=PARAMS, seed=2, max_time=400.0 * delta),
            MultiPaxosSmrBuilder(ScheduleSpec(num_commands=self.STABLE, start=10.0,
                                              interval=0.7, target_pid=0)),
        ).outcome
        table.add_row(case="stable, submitted at follower", commands=self.STABLE,
                      worst_submitter_latency_delta=follower.worst_submitter_latency() / delta,
                      worst_global_latency_delta=follower.worst_global_latency() / delta)
        chaos_scenario = partitioned_chaos_scenario(self.N, params=PARAMS,
                                                    ts=10.0 * delta, seed=3)
        chaos = run_scenario(
            chaos_scenario,
            MultiPaxosSmrBuilder(ScheduleSpec(num_commands=self.CHAOS, start=1.0,
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

    def plan(self):
        return experiment_e9_smr_stable_case(
            n=self.N, stable_commands=self.STABLE, chaos_commands=self.CHAOS
        )

    def test_e9_table_byte_identical_to_side_harness(self):
        assert run_plan(self.plan()).render() == self.side_harness_table()

    def test_e9_parallel_equals_serial(self):
        serial = run_plan(self.plan())
        with ParallelExecutor(jobs=3) as pool:
            parallel = run_plan(self.plan(), pool)
        assert parallel.render() == serial.render()

    def test_seeded_digests_identical_to_side_harness(self):
        delta = PARAMS.delta
        direct = run_scenario(
            stable_scenario(self.N, params=PARAMS, seed=1, max_time=400.0 * delta),
            MultiPaxosSmrBuilder(ScheduleSpec(num_commands=self.STABLE, start=10.0,
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

    def test_run_smr_tasks_rejects_executor_and_jobs(self):
        with pytest.raises(ExperimentError, match="not both"):
            run_smr_tasks([stable_task()], executor=SerialExecutor(), jobs=2)
