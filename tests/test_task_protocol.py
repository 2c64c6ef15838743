"""The task protocol and the pieces every task kind shares.

A declarative task executes itself: ``task.kind`` names its record type,
``task.run()`` returns the full result (simulator included) and
``task.execute()`` the condensed outcome executors ship.  Executors only
call ``task.execute()``; one :class:`ResultRow` holds either kind; one
:meth:`Scenario.build_simulator` sets up both single- and multi-decree runs;
and both record classes share one envelope (:class:`RecordBase`).
"""

import pickle
from typing import Union

import pytest

from repro.analysis.report import render_record_report
from repro.consensus.registry import protocol_builder
from repro.consensus.values import RunOutcome
from repro.env.spec import AdversarySpec, EnvironmentSpec
from repro.errors import ConfigurationError, ExperimentError, ResultSchemaError
from repro.harness import executors
from repro.harness.executors import (
    Executor,
    RunTask,
    SerialExecutor,
    SmrTask,
    execute_task,
    snapshot_outcome,
)
from repro.harness.experiment import (
    ExperimentSpec,
    ResultRow,
    ResultSet,
    lag_delta,
    run_experiment,
    run_smr_tasks,
)
from repro.harness.experiments import default_experiment_params
from repro.harness.runner import RunResult, run_scenario
from repro.results.record import (
    RecordBase,
    RunRecord,
    content_key_for_task,
    record_for_task,
)
from repro.results.smr_record import SmrRecord
from repro.sim.simulator import SimulationConfig
from repro.smr.outcome import SmrOutcome, snapshot_smr_outcome
from repro.smr.runner import SmrRunResult
from repro.smr.workload import ScheduleSpec
from repro.workloads.registry import WORKLOADS
from repro.workloads.scenario import Scenario

PARAMS = default_experiment_params()


def run_task(seed: int = 1, workload: str = "stable", n: int = 3, **tags) -> RunTask:
    return RunTask(
        protocol="modified-paxos",
        workload=workload,
        workload_kwargs={"n": n, "params": PARAMS, "seed": seed},
        tags={"seed": seed, **tags},
    )


def smr_task(seed: int = 1, commands: int = 3, **tags) -> SmrTask:
    return SmrTask(
        workload="smr-stable",
        workload_kwargs={"n": 3, "params": PARAMS, "seed": seed},
        schedule=ScheduleSpec(num_commands=commands, start=10.0, interval=0.7),
        tags={"seed": seed, **tags},
    )


TASK_FACTORIES = {"run": run_task, "smr": smr_task}


def make_scenario(
    name: str = "hand-built", env: Union[str, EnvironmentSpec] = "stable", seed: int = 1
) -> Scenario:
    """A hand-built scenario under ``env``: a spec, or the workload whose spec to take."""
    if isinstance(env, str):
        env = WORKLOADS.create(env, n=3, params=PARAMS).environment
    config = SimulationConfig(n=3, params=PARAMS, ts=10.0, seed=seed, max_time=200.0)
    return Scenario(name=name, config=config, environment=env)


def builder_for(protocol: str = "modified-paxos"):
    return protocol_builder(protocol)


class FakeTask:
    """Anything with ``execute()`` is a task to an executor."""

    def __init__(self, value, calls):
        self.value = value
        self.calls = calls

    def execute(self):
        self.calls.append(self.value)
        return self.value


class TestTaskProtocol:
    @pytest.mark.parametrize("kind", sorted(TASK_FACTORIES))
    def test_kind_names_the_task_family(self, kind):
        assert TASK_FACTORIES[kind]().kind == kind

    def test_run_task_run_keeps_the_simulator(self):
        result = run_task().run()
        assert isinstance(result, RunResult)
        assert result.decided_all
        assert result.simulator.now() > 0

    def test_run_task_execute_condenses_run(self):
        task = run_task()
        outcome = task.execute()
        assert isinstance(outcome, RunOutcome)
        assert outcome == snapshot_outcome(task.run())

    def test_smr_task_run_keeps_the_simulator(self):
        result = smr_task().run()
        assert isinstance(result, SmrRunResult)
        assert result.replicas_agree
        assert result.simulator.now() > 0

    def test_smr_task_execute_condenses_run(self):
        task = smr_task()
        outcome = task.execute()
        assert isinstance(outcome, SmrOutcome)
        assert outcome == snapshot_smr_outcome(task.run(), workload=task.workload)

    @pytest.mark.parametrize("kind", sorted(TASK_FACTORIES))
    def test_execute_task_is_task_execute(self, kind):
        task = TASK_FACTORIES[kind]()
        assert execute_task(task) == task.execute()

    @pytest.mark.parametrize("kind", sorted(TASK_FACTORIES))
    def test_tasks_pickle_with_their_kind(self, kind):
        task = TASK_FACTORIES[kind]()
        copy = pickle.loads(pickle.dumps(task))
        assert copy == task
        assert copy.kind == kind

    @pytest.mark.parametrize(
        "kind, global_name",
        [("run", "snapshot_outcome"), ("smr", "snapshot_smr_outcome")],
    )
    def test_execute_looks_up_the_snapshot_as_a_module_global(
        self, kind, global_name, monkeypatch
    ):
        # Instrumentation wraps these module attributes; execute() must see
        # the wrapper, not a reference bound at import time.
        original = getattr(executors, global_name)
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(executors, global_name, wrapped)
        TASK_FACTORIES[kind]().execute()
        assert len(calls) == 1


class TestSerialExecutor:
    def test_executes_anything_with_execute(self):
        calls = []
        tasks = [FakeTask("a", calls), FakeTask("b", calls)]
        assert SerialExecutor().map(tasks) == ["a", "b"]
        assert calls == ["a", "b"]

    def test_imap_executes_lazily_in_order(self):
        calls = []
        stream = SerialExecutor().imap([FakeTask(i, calls) for i in range(3)])
        assert calls == []
        assert next(stream) == 0
        assert calls == [0]
        assert list(stream) == [1, 2]
        assert calls == [0, 1, 2]

    def test_imap_only_executor_gets_map_and_close(self):
        class ImapOnly(Executor):
            def imap(self, tasks):
                return (task.execute() for task in tasks)

        calls = []
        executor = ImapOnly()
        assert executor.map([FakeTask("x", calls)]) == ["x"]
        executor.close()

    def test_mixed_batch_matches_each_task_executed_alone(self):
        tasks = [run_task(), smr_task()]
        assert SerialExecutor().map(tasks) == [task.execute() for task in tasks]


class TestOneResultRow:
    def test_rows_of_both_kinds_share_one_result_set(self):
        run_rows = run_experiment(
            ExperimentSpec(workload="stable", protocols=("modified-paxos",), seeds=(1,),
                           base={"n": 3, "params": PARAMS}, tags={"family": "run"})
        ).rows
        smr_rows = run_smr_tasks([smr_task(family="smr")])
        results = ResultSet(run_rows + smr_rows)
        assert all(isinstance(row, ResultRow) for row in results)
        assert results.tag_values("family") == ["run", "smr"]
        groups = results.group_by("family")
        assert isinstance(groups[("run",)].rows[0].outcome, RunOutcome)
        assert isinstance(groups[("smr",)].rows[0].outcome, SmrOutcome)

    def test_smr_row_tag_lookup_names_available_tags(self):
        row = ResultRow(smr_task(), smr_task().execute())
        assert row.tag("seed") == 1
        with pytest.raises(ExperimentError, match="available: seed"):
            row.tag("protocol")

    def test_grid_over_n_collects_rows_per_value(self):
        spec = ExperimentSpec(workload="stable", protocols=("modified-paxos",), seeds=(1, 2),
                              base={"params": PARAMS}, grid={"n": (3, 5)})
        results = run_experiment(spec)
        groups = results.group_by("n")
        assert list(groups) == [(3,), (5,)]
        assert all(len(group) == 2 for group in groups.values())
        for (n,), group in groups.items():
            assert [row.outcome.n for row in group] == [n, n]
            lags = group.values(lag_delta)
            assert group.max(lag_delta) == max(lags)


class TestBuildSimulator:
    def test_runs_like_run_scenario(self):
        scenario = make_scenario(env="partitioned-chaos")
        simulator = scenario.build_simulator(builder_for())
        simulator.run_until_decided(scenario.deciders())
        reference = run_scenario(make_scenario(env="partitioned-chaos"), "modified-paxos")
        assert simulator.now() == reference.simulator.now()
        assert simulator.trace.dump() == reference.simulator.trace.dump()

    def test_builder_is_attached_before_post_setup(self):
        seen = []
        builder = builder_for()
        scenario = make_scenario()
        scenario.post_setup = lambda simulator: seen.append(
            (simulator, builder.simulator, sorted(simulator.nodes))
        )
        simulator = scenario.build_simulator(builder)
        assert seen == [(simulator, simulator, [0, 1, 2])]

    def test_network_rng_is_forked_by_scenario_name(self):
        def run(name):
            simulator = make_scenario(name=name, env="lossy-chaos").build_simulator(
                builder_for()
            )
            simulator.run_until_decided([0, 1, 2])
            return simulator.trace.dump()

        assert run("same") == run("same")
        assert run("same") != run("other")

    def test_reassigned_fault_plan_is_validated(self):
        scenario = make_scenario()
        scenario.fault_plan = scenario.fault_plan.crash(0, 20.0)
        with pytest.raises(ConfigurationError, match="no failures at or after ts"):
            scenario.build_simulator(builder_for())

    def test_reassigned_fault_plan_is_applied(self):
        scenario = make_scenario()
        scenario.fault_plan = scenario.fault_plan.crash(2, 1.0)
        assert scenario.deciders() == [0, 1]
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert [decision.pid for decision in result.outcome().decisions] == [0, 1]


class TestScenarioEnvironment:
    def test_fault_plan_is_derived_from_the_environment(self):
        scenario = WORKLOADS.create(
            "restarts", n=5, params=PARAMS, seed=3
        )
        expected = scenario.environment.build_fault_plan(scenario.config)
        assert scenario.fault_plan.describe() == expected.describe()
        assert scenario.fault_plan.describe() != "no faults"

    def test_hand_built_scenario_records_its_environment(self):
        scenario = make_scenario(env=EnvironmentSpec(adversary=AdversarySpec("drop-all")))
        result = run_scenario(scenario, "modified-paxos")
        assert result.decided_all
        assert result.outcome().extra["environment"] == scenario.environment.to_dict()
        assert "environment: " in scenario.describe()


class TestRecordBase:
    @pytest.mark.parametrize("record_class", [RunRecord, SmrRecord])
    def test_both_record_kinds_share_the_base(self, record_class):
        assert issubclass(record_class, RecordBase)

    @pytest.mark.parametrize("kind", sorted(TASK_FACTORIES))
    def test_from_task_derives_the_content_key(self, kind):
        task = TASK_FACTORIES[kind]()
        outcome = task.execute()
        record = record_for_task(task, outcome)
        assert record.kind == task.kind
        assert record.key == content_key_for_task(task)
        assert type(record).from_task(task, outcome) == record
        assert type(record).from_task(task, outcome, key="pinned").key == "pinned"
        assert record.environment == outcome.extra["environment"]
        assert type(record).from_json(record.to_json()) == record

    @pytest.mark.parametrize("record_class", [RunRecord, SmrRecord])
    def test_missing_schema_version_rejected(self, record_class):
        data = {"kind": record_class.kind}
        with pytest.raises(ResultSchemaError, match="schema_version"):
            record_class.from_dict(data)

    def test_reports_of_both_kinds_open_with_the_same_header(self):
        reports = []
        for task in (run_task(), smr_task()):
            record = record_for_task(task, task.execute())
            lines = render_record_report(record).splitlines()
            assert lines[0].endswith(record.key)
            assert lines[1].startswith(f"  identity: protocol={record.protocol} ")
            assert lines[2] == "  tags: seed=1"
            assert lines[3].startswith("  environment: ")
            reports.append(lines)
        assert reports[0][0].startswith("run record: ")
        assert reports[1][0].startswith("smr record: ")
