"""Tests for the campaign runner (`repro.harness.campaign`) at smoke scale."""

import inspect
import os

import pytest

from repro.errors import ConfigurationError
from repro.harness.campaign import EXPERIMENTS, SMOKE, run_campaign, write_report
from repro.harness.executors import SerialExecutor
from repro.results.store import JsonlStore


class TestCatalogue:
    def test_experiments_lists_e1_to_e9_and_smoke_sizes_each(self):
        assert list(EXPERIMENTS) == [f"E{i}" for i in range(1, 10)]
        assert list(SMOKE) == list(EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(SMOKE))
    def test_smoke_sizes_are_parameters_of_their_experiment(self, name):
        # An experiment's only knobs are its sizes, plus the three the
        # campaign threads into every experiment.
        parameters = inspect.signature(EXPERIMENTS[name]).parameters
        assert set(parameters) == set(SMOKE[name]) | {"executor", "store", "resume"}

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="use 'smoke' or 'full'"):
            run_campaign(scale="enormous", experiments=["E7"])


class TestRun:
    def test_selected_experiments_only(self):
        messages = []
        result = run_campaign(scale="smoke", experiments=["E7"], progress=messages.append)
        assert [table.experiment for table in result.tables] == ["E7"]
        assert "E7" in result.durations
        assert messages and "E7" in messages[0]
        assert result.tables[0].rows

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
