"""Resume semantics for store-backed experiments and campaigns (PR 4).

The acceptance scenario: a campaign run with ``--store``, killed after k of
m runs, and re-invoked with ``--resume`` executes exactly m−k runs and
yields byte-identical tables to an uninterrupted run.
"""

import pytest

from helpers import CountingExecutor, DyingExecutor
from repro.errors import ExperimentError
from repro.harness.campaign import run_campaign, write_report
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.experiments import default_experiment_params
from repro.harness.tables import ExperimentTable
from repro.results.store import JsonlStore
from repro.results.record import content_key_for_task

PARAMS = default_experiment_params()


def chaos_spec() -> ExperimentSpec:
    return ExperimentSpec(
        workload="partitioned-chaos",
        protocols=("modified-paxos",),
        seeds=(1, 2),
        base={"params": PARAMS, "ts": 10.0},
        grid={"n": (3, 5)},
    )


def table_of(results) -> str:
    from repro.harness.experiment import lag_delta

    return ExperimentTable.from_result_set(
        results, experiment="EX", title="resume test", group=("n",),
        columns={"runs": len, "max_lag_delta": lambda s: s.max(lag_delta)},
    ).render()


class TestRunExperimentResume:
    def test_fresh_run_streams_all_records(self, tmp_path):
        store = JsonlStore(tmp_path / "runs.jsonl")
        results = run_experiment(chaos_spec(), store=store)
        assert len(results) == 4
        assert len(store) == 4
        keys = {content_key_for_task(task) for task in chaos_spec().tasks()}
        assert set(store.keys()) == keys

    def test_full_resume_executes_nothing(self, tmp_path):
        store = JsonlStore(tmp_path / "runs.jsonl")
        fresh = run_experiment(chaos_spec(), store=store)
        counting = CountingExecutor()
        resumed = run_experiment(chaos_spec(), store=store, resume=True,
                                 executor=counting)
        assert counting.executed == 0
        assert table_of(resumed) == table_of(fresh)

    def test_partial_resume_executes_exactly_missing(self, tmp_path):
        spec = chaos_spec()
        m = len(spec.tasks())
        k = 2
        store = JsonlStore(tmp_path / "runs.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, store=store, executor=DyingExecutor(fail_after=k))
        # Streaming writes: everything finished before the kill is durable.
        assert len(JsonlStore(tmp_path / "runs.jsonl")) == k

        counting = CountingExecutor()
        resumed = run_experiment(spec, store=store, resume=True, executor=counting)
        assert counting.executed == m - k
        assert len(resumed) == m
        assert table_of(resumed) == table_of(run_experiment(spec))

    def test_resume_without_store_rejected(self):
        with pytest.raises(ExperimentError, match="store"):
            run_experiment(chaos_spec(), resume=True)

    def test_without_store_behaviour_unchanged(self):
        assert table_of(run_experiment(chaos_spec())) == table_of(run_experiment(chaos_spec()))

    def test_executor_without_imap_fails_clearly(self):
        from repro.harness.executors import Executor

        class Hollow(Executor):
            pass

        with pytest.raises(NotImplementedError, match="Hollow must override Executor.imap"):
            Hollow().imap([])


class TestCampaignResume:
    def test_interrupted_campaign_yields_byte_identical_tables(self, tmp_path):
        """The PR acceptance scenario, end to end at smoke scale."""
        baseline = run_campaign(scale="smoke", experiments=["E7"])
        baseline_report = write_report(baseline, str(tmp_path / "baseline"))

        store_path = str(tmp_path / "campaign.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(scale="smoke", experiments=["E7"], store=store_path,
                         executor=DyingExecutor(fail_after=2))
        partial = len(JsonlStore(store_path))
        assert 0 < partial < 4  # E7 smoke = 4 protocols x 1 seed

        counting = CountingExecutor()
        resumed = run_campaign(scale="smoke", experiments=["E7"], store=store_path,
                               resume=True, executor=counting)
        assert counting.executed == 4 - partial
        resumed_report = write_report(resumed, str(tmp_path / "resumed"))

        assert (tmp_path / "resumed" / "E7.txt").read_bytes() == \
            (tmp_path / "baseline" / "E7.txt").read_bytes()
        # The Markdown reports differ only in the timing lines.
        strip = lambda path: [line for line in path.read_text().splitlines()  # noqa: E731
                              if not line.startswith("_Regenerated")]
        assert strip(tmp_path / "resumed" / "experiments_report.md") == \
            strip(tmp_path / "baseline" / "experiments_report.md")
        assert baseline_report != resumed_report  # separate files, same tables
