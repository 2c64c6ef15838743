"""Tests for the campaign runner (`repro.harness.campaign`) at smoke scale."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.harness.campaign import campaign_plan, run_campaign, write_report
from repro.harness.executors import SerialExecutor


class TestPlan:
    def test_smoke_and_full_cover_all_nine_experiments(self):
        assert sorted(campaign_plan("smoke")) == [f"E{i}" for i in range(1, 10)]
        assert sorted(campaign_plan("full")) == [f"E{i}" for i in range(1, 10)]

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            campaign_plan("enormous")


class TestRun:
    def test_selected_experiments_only(self):
        messages = []
        result = run_campaign(scale="smoke", experiments=["E7"], progress=messages.append)
        assert [table.experiment for table in result.tables] == ["E7"]
        assert "E7" in result.durations
        assert messages and "E7" in messages[0]
        assert result.table("E7").rows

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(scale="smoke", experiments=["E42"])

    def test_unknown_experiment_checked_before_anything_runs(self, tmp_path):
        class UnusedExecutor(SerialExecutor):
            def imap(self, tasks):
                raise AssertionError("no task may run")

        store = tmp_path / "campaign.sqlite"
        messages = []
        with pytest.raises(ConfigurationError) as excinfo:
            run_campaign(scale="smoke", experiments=["E7", "E99"], store=str(store),
                         executor=UnusedExecutor(), progress=messages.append)
        assert "unknown experiment E99" in str(excinfo.value)
        assert "available: E1, E2, E3, E4, E5, E6, E7, E8, E9" in str(excinfo.value)
        assert messages == []
        assert not store.exists()

    def test_table_lookup_missing(self):
        result = run_campaign(scale="smoke", experiments=["E7"])
        with pytest.raises(KeyError):
            result.table("E1")


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
