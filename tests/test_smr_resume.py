"""Resume semantics for store-backed SMR runs and the E9 campaign (PR 5).

The acceptance scenario: ``run_campaign(["E9"], store=..., resume=True)``
interrupted after k of m SMR runs re-executes exactly m−k on resume and
produces byte-identical tables — the multi-decree layer genuinely honors
``executor=``, ``store=``, and ``resume=`` instead of silently ignoring
them.
"""

import pytest

from helpers import CountingExecutor, DyingExecutor
from repro.errors import ExperimentError
from repro.harness.campaign import run_campaign, write_report
from repro.harness.executors import SmrTask
from repro.harness.experiment import run_smr_tasks
from repro.harness.experiments import default_experiment_params
from repro.results.store import JsonlStore
from repro.results.record import content_key_for_task
from repro.results.smr_record import SmrRecord
from repro.smr.workload import ScheduleSpec

PARAMS = default_experiment_params()


def smr_tasks(n=3, seeds=(1, 2, 3)):
    return [
        SmrTask(
            workload="smr-stable",
            workload_kwargs={"n": n, "params": PARAMS, "seed": seed},
            schedule=ScheduleSpec(num_commands=3, start=10.0, interval=0.7),
            tags={"seed": seed},
        )
        for seed in seeds
    ]


class TestRunSmrTasksResume:
    def test_fresh_run_streams_all_records(self, tmp_path):
        store = JsonlStore(tmp_path / "smr.jsonl")
        tasks = smr_tasks()
        rows = run_smr_tasks(tasks, store=store)
        assert len(rows) == 3
        assert set(store.keys()) == {content_key_for_task(task) for task in tasks}
        assert all(isinstance(record, SmrRecord) for record in store.records())

    def test_full_resume_executes_nothing(self, tmp_path):
        store = JsonlStore(tmp_path / "smr.jsonl")
        tasks = smr_tasks()
        fresh = run_smr_tasks(tasks, store=store)
        counting = CountingExecutor()
        resumed = run_smr_tasks(tasks, store=store, resume=True, executor=counting)
        assert counting.executed == 0
        assert [row.outcome for row in resumed] == [row.outcome for row in fresh]

    def test_partial_resume_executes_exactly_missing(self, tmp_path):
        tasks = smr_tasks()
        m, k = len(tasks), 1
        store = JsonlStore(tmp_path / "smr.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_smr_tasks(tasks, store=store, executor=DyingExecutor(fail_after=k))
        # Streaming writes: everything finished before the kill is durable.
        assert len(JsonlStore(tmp_path / "smr.jsonl")) == k

        counting = CountingExecutor()
        resumed = run_smr_tasks(tasks, store=store, resume=True, executor=counting)
        assert counting.executed == m - k
        assert [row.outcome for row in resumed] == [
            row.outcome for row in run_smr_tasks(tasks)
        ]

    def test_resume_without_store_rejected(self):
        with pytest.raises(ExperimentError, match="store"):
            run_smr_tasks(smr_tasks(), resume=True)


class TestE9CampaignResume:
    def test_interrupted_e9_campaign_yields_byte_identical_tables(self, tmp_path):
        """The PR acceptance scenario, end to end at smoke scale."""
        baseline_store = JsonlStore(tmp_path / "baseline.jsonl")
        baseline = run_campaign(scale="smoke", experiments=["E9"], store=baseline_store)
        write_report(baseline, str(tmp_path / "baseline"))
        assert len(baseline_store) == 3  # E9 smoke = 3 SMR cases

        store_path = str(tmp_path / "campaign.jsonl")
        k = 2
        with pytest.raises(KeyboardInterrupt):
            run_campaign(scale="smoke", experiments=["E9"], store=store_path,
                         executor=DyingExecutor(fail_after=k))
        assert len(JsonlStore(store_path)) == k

        counting = CountingExecutor()
        resumed = run_campaign(scale="smoke", experiments=["E9"], store=store_path,
                               resume=True, executor=counting)
        assert counting.executed == 3 - k
        write_report(resumed, str(tmp_path / "resumed"))

        assert (tmp_path / "resumed" / "E9.txt").read_bytes() == \
            (tmp_path / "baseline" / "E9.txt").read_bytes()

    @pytest.mark.parametrize("k", [2, 5])
    def test_interrupted_mixed_campaign_resumes_only_the_missing_runs(self, tmp_path, k):
        """E7 and E9 run as one batch; k=5 dies inside E9, after all of E7."""
        experiments = ["E7", "E9"]
        baseline = run_campaign(scale="smoke", experiments=experiments)

        store_path = str(tmp_path / "mixed.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(scale="smoke", experiments=experiments, store=store_path,
                         executor=DyingExecutor(fail_after=k))
        assert len(JsonlStore(store_path)) == k

        counting = CountingExecutor()
        resumed = run_campaign(scale="smoke", experiments=experiments, store=store_path,
                               resume=True, executor=counting)
        assert counting.executed == 4 + 3 - k  # E7: 4 runs; E9: 3 cases
        assert [table.render() for table in resumed.tables] == \
            [table.render() for table in baseline.tables]

    def test_e9_campaign_streams_smr_records(self, tmp_path):
        store = JsonlStore(tmp_path / "e9.jsonl")
        run_campaign(scale="smoke", experiments=["E9"], store=store)
        assert all(isinstance(record, SmrRecord) for record in store.records())
        assert len(store) == 3

    def test_campaign_store_mixes_run_and_smr_records(self, tmp_path):
        """E7 (single-decree) and E9 (SMR) share one campaign store."""
        store_path = str(tmp_path / "mixed.jsonl")
        run_campaign(scale="smoke", experiments=["E7", "E9"], store=store_path)
        reopened = JsonlStore(store_path)
        kinds = {record.kind for record in reopened.records()}
        assert kinds == {"run", "smr"}
        assert len(reopened) == 4 + 3  # E7: 4 protocols x 1 seed; E9: 3 cases
