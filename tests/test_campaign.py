"""Tests for the campaign runner (`repro.harness.campaign`) at smoke scale."""

import functools
import inspect
import itertools
import os

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.harness.campaign import EXPERIMENTS, SMOKE, run_campaign, write_report
from repro.harness.executors import SerialExecutor
from repro.results.store import JsonlStore


class TestCatalogue:
    def test_experiments_lists_e1_to_e9_and_smoke_sizes_each(self):
        assert list(EXPERIMENTS) == [f"E{i}" for i in range(1, 10)]
        assert list(SMOKE) == list(EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(SMOKE))
    def test_smoke_sizes_are_parameters_of_their_experiment(self, name):
        # An experiment's only knobs are its sizes: how its runs execute
        # (executor, store, resume) is the campaign's business.
        parameters = inspect.signature(EXPERIMENTS[name]).parameters
        assert list(parameters) == list(SMOKE[name])

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="use 'smoke' or 'full'"):
            run_campaign(scale="enormous", experiments=["E7"])


class TestRun:
    def test_selected_experiments_only(self):
        messages = []
        result = run_campaign(scale="smoke", experiments=["E7"], progress=messages.append)
        assert [table.experiment for table in result.tables] == ["E7"]
        assert result.duration > 0
        assert messages == ["planning E7 (smoke scale)", "running 4 runs of E7 (smoke scale)"]
        assert result.tables[0].rows

    def test_one_progress_line_per_experiment_and_one_for_the_batch(self):
        messages = []
        run_campaign(scale="smoke", experiments=["E9", "E7"], progress=messages.append)
        assert messages == [
            "planning E9 (smoke scale)",
            "planning E7 (smoke scale)",
            "running 7 runs of E9, E7 (smoke scale)",
        ]

    def test_all_experiments_run_as_one_batch_and_slice_back_in_order(self):
        batches = []

        class RecordingExecutor(SerialExecutor):
            def imap(self, tasks):
                batches.append(list(tasks))
                return super().imap(tasks)

        result = run_campaign(scale="smoke", experiments=["E9", "E7", "E3"],
                              executor=RecordingExecutor())
        assert [len(batch) for batch in batches] == [3 + 4 + 2]
        alone = [run_campaign(scale="smoke", experiments=[name]).tables[0].render()
                 for name in ("E9", "E7", "E3")]
        assert [table.render() for table in result.tables] == alone

    def test_failed_planning_runs_nothing_and_creates_no_store(self, tmp_path, monkeypatch):
        class UnusedExecutor(SerialExecutor):
            def imap(self, tasks):
                raise AssertionError("no task may run")

        # E3 at n=21 can crash at most 10 coordinators.
        monkeypatch.setitem(EXPERIMENTS, "E3", functools.partial(
            EXPERIMENTS["E3"], faulty_counts=(0, 11)))
        store = tmp_path / "campaign.jsonl"
        with pytest.raises(ExperimentError, match="cannot crash 11 coordinators with n=21"):
            run_campaign(scale="full", experiments=["E7", "E3"], store=str(store),
                         executor=UnusedExecutor())
        assert not store.exists()

    def test_an_executor_that_drops_an_outcome_fails_the_campaign(self):
        class ShortExecutor(SerialExecutor):
            def imap(self, tasks):
                return itertools.islice(super().imap(tasks), len(tasks) - 1)

        with pytest.raises(ExperimentError, match="no outcome for 1 of 7 tasks"):
            run_campaign(scale="smoke", experiments=["E7", "E9"], executor=ShortExecutor())

    def test_executor_and_jobs_rejected_together(self):
        with pytest.raises(ExperimentError, match="not both"):
            run_campaign(scale="smoke", experiments=["E7"], executor=SerialExecutor(), jobs=2)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(scale="smoke", experiments=["E42"])

    def test_unknown_experiment_checked_before_anything_runs(self, tmp_path):
        class UnusedExecutor(SerialExecutor):
            def imap(self, tasks):
                raise AssertionError("no task may run")

        store = tmp_path / "campaign.jsonl"
        messages = []
        with pytest.raises(ConfigurationError) as excinfo:
            run_campaign(scale="smoke", experiments=["E7", "E99"], store=str(store),
                         executor=UnusedExecutor(), progress=messages.append)
        assert "unknown experiment E99" in str(excinfo.value)
        assert "available: E1, E2, E3, E4, E5, E6, E7, E8, E9" in str(excinfo.value)
        assert messages == []
        assert not store.exists()

    def test_repeated_experiment_runs_once(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        result = run_campaign(scale="smoke", experiments=["E7", "E7"], store=str(store_path))
        assert [table.experiment for table in result.tables] == ["E7"]
        assert len(store_path.read_text().splitlines()) == 4

    @pytest.fixture
    def close_calls(self, monkeypatch):
        calls = []
        original = JsonlStore.close

        def recording_close(store):
            calls.append(store)
            original(store)

        monkeypatch.setattr(JsonlStore, "close", recording_close)
        return calls

    def test_store_opened_from_path_is_closed(self, tmp_path, close_calls):
        run_campaign(scale="smoke", experiments=["E7"], store=str(tmp_path / "c.jsonl"))
        assert len(close_calls) == 1

    def test_store_passed_in_stays_open(self, tmp_path, close_calls):
        store = JsonlStore(tmp_path / "c.jsonl")
        run_campaign(scale="smoke", experiments=["E7"], store=store)
        assert close_calls == []
        assert len(store) == 4


class TestReport:
    def test_write_report_produces_files(self, tmp_path):
        result = run_campaign(scale="smoke", experiments=["E7", "E3"])
        report = write_report(result, str(tmp_path))
        assert os.path.exists(report)
        assert (tmp_path / "E7.txt").exists()
        assert (tmp_path / "E3.txt").exists()
        content = (tmp_path / "experiments_report.md").read_text()
        assert "E7" in content and "E3" in content
        assert "```" in content
