"""Tests for the unified Experiment API.

Covers the workload table (schema and error paths), the executor
layer (serial vs. process-pool parallel producing identical outcomes), the
``ExperimentSpec`` grid expansion, and ``ResultSet`` filtering, grouping,
and aggregation — plus the table-backed CLI listings.
"""

import pytest

from repro.cli import main as cli_main
from repro.consensus.values import RunOutcome
from repro.errors import ConfigurationError, ExperimentError
from repro.harness.executors import (
    ParallelExecutor,
    SerialExecutor,
    execute_task,
    make_executor,
)
from repro.harness.experiment import (
    ExperimentSpec,
    ResultSet,
    lag_delta,
    run_experiment,
)
from repro.harness.experiments import (
    default_experiment_params,
    experiment_e8_protocol_comparison,
)
from repro.harness.tables import ExperimentTable
from repro.workloads.registry import WORKLOADS, factory_parameters
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params, run_plan


class TestWorkloadTable:
    def test_table_has_every_workload(self):
        assert {
            "stable",
            "partitioned-chaos",
            "lossy-chaos",
            "obsolete-ballots",
            "coordinator-crash",
            "restarts",
            "kitchen-sink",
        } <= set(WORKLOADS)

    def test_create_builds_the_same_scenario_as_the_factory(self):
        params = make_params(rho=0.01)
        via_registry = WORKLOADS.create("stable", n=3, params=params, seed=9)
        direct = stable_scenario(3, params=params, seed=9)
        assert via_registry.name == direct.name
        assert via_registry.config == direct.config

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WORKLOADS.create("does-not-exist", n=3)
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WORKLOADS.describe("does-not-exist")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept parameter"):
            WORKLOADS.create("stable", n=3, ts=5.0)

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="requires parameters"):
            WORKLOADS.create("stable")

    def test_schema_records_defaults_and_requirements(self):
        factory, _summary, _help = WORKLOADS["partitioned-chaos"]
        by_name = {parameter.name: parameter for parameter in factory_parameters(factory)}
        assert "ts" in by_name and "worst_case_post_delays" in by_name
        assert "bogus" not in by_name
        assert by_name["n"].default is by_name["n"].empty
        assert by_name["seed"].default == 0
        text = WORKLOADS.describe("partitioned-chaos")
        assert text.startswith("partitioned-chaos: ")
        assert "  n (required)  number of processes" in text
        assert "  seed=0" in text

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_help_names_only_factory_parameters(self, name):
        factory, _summary, param_help = WORKLOADS[name]
        accepted = {parameter.name for parameter in factory_parameters(factory)}
        assert set(param_help) <= accepted


class TestExperimentSpec:
    def test_tasks_cover_protocols_grid_and_seeds(self):
        spec = ExperimentSpec(
            workload="stable",
            protocols=("modified-paxos", "traditional-paxos"),
            seeds=(1, 2, 3),
            base={"params": make_params()},
            grid={"n": (3, 5)},
        )
        tasks = spec.tasks()
        assert len(tasks) == 2 * 2 * 3
        first = tasks[0]
        assert first.workload == "stable"
        assert first.tags == {"n": 3, "protocol": "modified-paxos", "seed": 1}
        assert first.workload_kwargs["n"] == 3 and first.workload_kwargs["seed"] == 1

    def test_bind_remaps_grid_point_to_workload_kwargs(self):
        spec = ExperimentSpec(
            workload="coordinator-crash",
            protocols=("rotating-coordinator",),
            base={"n": 5},
            grid={"f": (0, 1)},
            bind=lambda point: {"num_faulty": point["f"]},
        )
        tasks = spec.tasks()
        assert [task.workload_kwargs["num_faulty"] for task in tasks] == [0, 1]
        assert [task.tags["f"] for task in tasks] == [0, 1]
        assert all("f" not in task.workload_kwargs for task in tasks)

    def test_empty_protocols_or_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(workload="stable", protocols=()).tasks()
        with pytest.raises(ExperimentError):
            ExperimentSpec(workload="stable", protocols=("modified-paxos",), seeds=()).tasks()


class TestExecutors:
    def _spec(self):
        return ExperimentSpec(
            workload="stable",
            protocols=("modified-paxos",),
            seeds=(1, 2, 3),
            base={"n": 3, "params": make_params(rho=0.01)},
        )

    def test_execute_task_returns_enriched_outcome(self):
        task = self._spec().tasks()[0]
        outcome = execute_task(task)
        assert isinstance(outcome, RunOutcome)
        assert outcome.all_decided
        assert outcome.extra["max_lag_after_ts"] is not None
        assert outcome.extra["safety_valid"] is True

    def test_serial_and_parallel_outcomes_identical(self):
        tasks = self._spec().tasks()
        serial = list(SerialExecutor().imap(tasks))
        with ParallelExecutor(jobs=3) as pool:
            parallel = list(pool.imap(tasks))
        assert serial == parallel

    def test_jobs_leaves_no_worker_processes(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        spec = ExperimentSpec(
            workload="stable",
            protocols=("modified-paxos",),
            seeds=(1, 2, 3, 4),
            base={"n": 3, "params": default_experiment_params()},
        )
        assert len(run_experiment(spec, jobs=2)) == 4
        assert set(multiprocessing.active_children()) - before == set()

    def test_parallel_executor_falls_back_for_single_task(self):
        tasks = self._spec().tasks()[:1]
        assert list(ParallelExecutor(jobs=8).imap(tasks)) == list(SerialExecutor().imap(tasks))

    def test_make_executor_selects_by_jobs(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        parallel = make_executor(4)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.jobs == 4

    def test_parallel_executor_rejects_zero_jobs(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=0)

class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        spec = ExperimentSpec(
            workload="stable",
            protocols=("modified-paxos", "traditional-paxos"),
            seeds=(1, 2),
            base={"params": make_params(rho=0.01)},
            grid={"n": (3, 5)},
        )
        return run_experiment(spec)

    def test_filter_by_tags(self, results):
        subset = results.filter(protocol="modified-paxos", n=3)
        assert len(subset) == 2
        assert all(row.tag("protocol") == "modified-paxos" for row in subset)

    def test_group_by_preserves_grid_order(self, results):
        groups = results.group_by("protocol", "n")
        assert list(groups) == [
            ("modified-paxos", 3),
            ("modified-paxos", 5),
            ("traditional-paxos", 3),
            ("traditional-paxos", 5),
        ]
        assert all(len(subset) == 2 for subset in groups.values())

    def test_aggregation_helpers(self, results):
        values = results.values(lag_delta)
        assert len(values) == len(results)
        assert results.min(lag_delta) == min(values)
        assert results.max(lag_delta) == max(values)
        assert results.mean(lag_delta) == pytest.approx(sum(values) / len(values))
        assert results.undecided_count() == 0

    def test_empty_aggregations_return_none(self):
        empty = ResultSet()
        assert empty.mean(lag_delta) is None
        assert empty.max(lag_delta) is None
        assert not empty

    def test_unknown_tag_raises(self, results):
        with pytest.raises(ExperimentError):
            results.rows[0].tag("nope")
        with pytest.raises(ExperimentError):
            results.group_by()

    def test_table_rendering(self, results):
        table = ExperimentTable.from_result_set(
            results,
            experiment="EX",
            title="demo",
            group=("protocol", "n"),
            columns={"max_lag_delta": lambda subset: subset.max(lag_delta)},
        )
        assert table.headers == ["protocol", "n", "max_lag_delta"]
        assert len(table.rows) == 4
        assert "modified-paxos" in table.render()


class TestRunExperiment:
    def test_executor_and_jobs_are_exclusive(self):
        spec = ExperimentSpec(workload="stable", protocols=("modified-paxos",))
        with pytest.raises(ExperimentError):
            run_experiment(spec, executor=SerialExecutor(), jobs=2)

    def test_multiple_specs_run_as_one_batch(self):
        params = make_params(rho=0.01)
        specs = [
            ExperimentSpec(
                workload="stable",
                protocols=("modified-paxos",),
                seeds=(1,),
                base={"n": 3, "params": params},
                tags={"case": "a"},
            ),
            ExperimentSpec(
                workload="stable",
                protocols=("traditional-paxos",),
                seeds=(1,),
                base={"n": 3, "params": params},
                tags={"case": "b"},
            ),
        ]
        results = run_experiment(specs)
        assert len(results) == 2
        assert len(results.filter(case="a")) == 1
        assert [row.tag("case") for row in results] == ["a", "b"]

    def test_e8_parallel_matches_serial(self):
        plan = experiment_e8_protocol_comparison(ns=(5,), seeds=(1,))
        serial = run_plan(plan)
        with ParallelExecutor(jobs=4) as pool:
            parallel = run_plan(plan, pool)
        assert serial.rows == parallel.rows


class TestCliListings:
    def test_list_workloads(self, capsys):
        assert cli_main(["list-workloads"]) == 0
        output = capsys.readouterr().out
        assert "partitioned-chaos" in output
        assert "kitchen-sink" in output
        assert "minority partitions" in output  # summaries are printed too

    def test_list_workloads_with_params(self, capsys):
        assert cli_main(["list-workloads", "--params"]) == 0
        output = capsys.readouterr().out
        assert "n (required)" in output

    def test_run_rejects_unsupported_ts(self, capsys):
        # "stable" pins ts=0; passing --ts must fail with the schema error.
        exit_code = cli_main(["run", "--workload", "stable", "--n", "3", "--ts", "5"])
        assert exit_code == 2
        assert "does not accept parameter" in capsys.readouterr().out
