"""Unit tests for the harness: runner and table rendering."""

import pytest

from repro.analysis.invariants import InvariantReport
from repro.consensus.values import RunOutcome
from repro.core.modified_paxos import ModifiedPaxosBuilder
from repro.harness import runner
from repro.harness.runner import run_scenario
from repro.harness.tables import ExperimentTable, render_table
from repro.smr import runner as smr_runner
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.workload import ScheduleSpec
from repro.workloads.stable import stable_scenario

from tests.helpers import run_to_horizon


def forced_violation(trace, n):
    return InvariantReport(name="forced", checked=1, violations=["forced violation"])


RUN_KINDS = ["single-decree", "smr"]


def builder_of(kind):
    if kind == "smr":
        return MultiPaxosSmrBuilder(ScheduleSpec(num_commands=3, start=1.0, interval=0.5))
    return ModifiedPaxosBuilder()


def force_safety(monkeypatch, kind, report):
    """Make the run kind's safety check return ``report``, patched where its builder calls it."""
    if kind == "smr":
        monkeypatch.setattr(smr_runner, "check_smr_safety", lambda simulator: report)
    else:
        monkeypatch.setattr(runner, "check_safety", lambda simulator, expected_deciders: report)


class TestRenderTable:
    def test_alignment_and_formatting(self):
        text = render_table(
            ["name", "value"],
            [["alpha", 1.23456], ["b", None], ["c", 7]],
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-----" in lines[1]
        assert "1.235" in text
        assert "-" in lines[3]  # None rendered as a dash

    def test_indent(self):
        text = render_table(["x"], [[1]], indent="  ")
        assert all(line.startswith("  ") for line in text.splitlines())


class TestExperimentTable:
    def test_add_row(self):
        table = ExperimentTable(experiment="EX", title="t", headers=["n", "lag"])
        table.add_row(n=3, lag=1.5)
        table.add_row(n=5, lag=2.5)
        assert table.rows == [{"n": 3, "lag": 1.5}, {"n": 5, "lag": 2.5}]

    def test_render_contains_title_rows_and_notes(self):
        table = ExperimentTable(
            experiment="E9", title="demo", headers=["a"], notes="shape note"
        )
        table.add_row(a=42)
        text = table.render()
        assert "E9: demo" in text
        assert "42" in text
        assert "shape note" in text


class TestRunner:
    def test_run_scenario_by_name_produces_full_result(self, params):
        scenario = stable_scenario(3, params=params, seed=5)
        result = run_scenario(scenario, "modified-paxos")
        assert result.protocol == "modified-paxos"
        assert result.decided_all
        assert result.safety.valid
        assert "session-entry-rule" in result.invariants
        assert result.outcome.messages_sent > 0
        assert result.max_lag_after_ts() is not None

    def test_run_scenario_with_builder_instance(self, params):
        from repro.core.modified_paxos import ModifiedPaxosBuilder

        scenario = stable_scenario(3, params=params, seed=5)
        result = run_scenario(scenario, ModifiedPaxosBuilder())
        assert result.protocol == "modified-paxos"
        assert result.decided_all

    def test_outcome_snapshot(self, params):
        scenario = stable_scenario(3, params=params, seed=5)
        result = run_scenario(scenario, "modified-paxos")
        outcome = result.outcome
        assert isinstance(outcome, RunOutcome)
        assert outcome.all_decided
        assert outcome.n == 3
        assert len(outcome.decisions) == 3
        assert outcome.messages_sent == result.simulator.network.monitor.stats.sent

    def test_unknown_protocol_name_raises(self, params):
        from repro.errors import ConfigurationError

        scenario = stable_scenario(3, params=params, seed=5)
        with pytest.raises(ConfigurationError):
            run_scenario(scenario, "raft")

    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_enforce_raises_on_a_violated_invariant(self, params, monkeypatch, kind):
        from repro.errors import InvariantViolation

        builder = builder_of(kind)
        monkeypatch.setattr(type(builder), "invariant_checks",
                            lambda self: {"forced": forced_violation})
        with pytest.raises(InvariantViolation, match="forced violation"):
            run_scenario(stable_scenario(3, params=params, seed=5), builder)

    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_unenforced_run_attaches_every_failed_report(self, params, monkeypatch, kind):
        from repro.consensus.spec import SafetyReport

        unsafe = SafetyReport(valid=False, violations=["agreement: forced"])
        force_safety(monkeypatch, kind, unsafe)
        builder = builder_of(kind)
        monkeypatch.setattr(type(builder), "invariant_checks",
                            lambda self: {"forced": forced_violation})
        result = run_scenario(stable_scenario(3, params=params, seed=5), builder, enforce=False)
        assert result.safety is unsafe
        if kind == "single-decree":
            assert result.outcome.extra["safety_valid"] is False
        assert result.invariants["forced"].violations == ["forced violation"]

    def test_run_to_horizon_stays_safe(self, params):
        scenario = stable_scenario(3, params=params, seed=5, max_time=30.0)
        # Running past the decision is allowed and must stay safe.
        simulator = run_to_horizon(scenario, "modified-paxos")
        assert sorted(simulator.decisions) == [0, 1, 2]
