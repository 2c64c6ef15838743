"""Resume semantics for store-backed SMR runs and the E9 campaign (PR 5).

The acceptance scenario: ``run_campaign(["E9"], store=..., resume=True)``
interrupted after k of m SMR runs re-executes exactly m−k on resume and
produces byte-identical tables — the multi-decree layer genuinely honors
``executor=``, ``store=``, and ``resume=`` instead of silently ignoring
them.
"""

import pytest

from repro.errors import ExperimentError
from repro.harness.campaign import run_campaign, write_report
from repro.harness.executors import SerialExecutor, SmrTask
from repro.harness.experiment import run_smr_tasks
from repro.harness.experiments import default_experiment_params
from repro.results import JsonlStore
from repro.results.record import content_key_for_task
from repro.results.smr_record import SmrRecord
from repro.smr.workload import ScheduleSpec

PARAMS = default_experiment_params()


class CountingExecutor(SerialExecutor):
    """Serial executor that counts how many tasks it actually ran."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def imap(self, tasks):
        for task in tasks:
            self.executed += 1
            yield task.execute()


class DyingExecutor(SerialExecutor):
    """Simulates a campaign killed midway: dies after ``fail_after`` runs."""

    def __init__(self, fail_after):
        super().__init__()
        self.fail_after = fail_after
        self.executed = 0

    def imap(self, tasks):
        for task in tasks:
            if self.executed >= self.fail_after:
                raise KeyboardInterrupt("simulated mid-campaign kill")
            self.executed += 1
            yield task.execute()


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
        baseline = run_campaign(scale="smoke", experiments=["E9"])
        write_report(baseline, str(tmp_path / "baseline"))
        assert len(baseline.store) == 3  # E9 smoke = 3 SMR cases

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

    def test_e9_records_collect_in_memory_store_by_default(self):
        result = run_campaign(scale="smoke", experiments=["E9"])
        assert all(isinstance(record, SmrRecord) for record in result.store.records())
        assert len(result.store) == 3

    def test_campaign_store_mixes_run_and_smr_records(self, tmp_path):
        """E7 (single-decree) and E9 (SMR) share one campaign store."""
        store_path = str(tmp_path / "mixed.jsonl")
        run_campaign(scale="smoke", experiments=["E7", "E9"], store=store_path)
        reopened = JsonlStore(store_path)
        kinds = {record.kind for record in reopened.records()}
        assert kinds == {"run", "smr"}
        assert len(reopened) == 4 + 3  # E7: 4 protocols x 1 seed; E9: 3 cases
