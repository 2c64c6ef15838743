"""Tests for the CLI (`repro.cli`) and the run report renderer (`repro.analysis.report`)."""

import pytest

from repro.analysis.report import render_run_report
from repro.cli import WORKLOADS, build_parser, main
from repro.harness.runner import run_scenario
from repro.workloads.restarts import restart_after_stability_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params


class TestRunReport:
    def test_report_contains_all_sections(self):
        params = make_params(rho=0.01)
        result = run_scenario(stable_scenario(3, params=params, seed=1), "modified-paxos")
        report = render_run_report(result)
        assert "run report: protocol=modified-paxos" in report
        assert "decisions (lag is relative to TS):" in report
        assert "worst decision lag after TS" in report
        assert "safety                      : OK" in report
        assert "invariant session-entry-rule" in report
        assert "messages: sent=" in report
        assert "p0" in report and "p2" in report

    def test_report_shows_undecided_and_crashed_processes(self):
        params = make_params(rho=0.01)
        scenario = restart_after_stability_scenario(
            5, params=params, ts=6.0, seed=1, restart_offsets=[3.0]
        )
        # Stop before everyone decided so the report shows a dash.
        result = run_scenario(scenario, "modified-paxos", run_until_decided=False)
        # Force re-render regardless of how far the run got.
        report = render_run_report(result)
        assert "highest session reached" in report
        assert "crash" in result.scenario.fault_plan.describe()


class TestCliParser:
    def test_workload_list_is_complete(self):
        # The CLI's --workload choices are the workload table's keys.
        assert set(WORKLOADS) == {
            "stable",
            "partitioned-chaos",
            "lossy-chaos",
            "obsolete-ballots",
            "coordinator-crash",
            "restarts",
            "kitchen-sink",
            "environment",
            "asymmetric-link",
            "gray-partition",
            "churn",
            "smr-stable",
            "smr-chaos",
            "smr-churn",
            "smr-gray-partition",
            "smr-asymmetric-link",
        }

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_docstring_lists_every_subcommand(self):
        import argparse
        import re

        import repro.cli

        (subparsers,) = [action for action in build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        documented = set(re.findall(r"python -m repro ([a-z-]+)", repro.cli.__doc__))
        assert documented == set(subparsers.choices)
        assert repro.cli.__doc__.startswith("Command-line interface.\n\nSix subcommands")
        assert len(subparsers.choices) == 6

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        # --protocol and --workload default to None at the parser level so an
        # explicit flag can be detected when it conflicts with --env or with
        # an smr-* workload; _command_run falls back to modified-paxos on
        # partitioned-chaos.
        assert args.protocol is None
        assert args.workload is None
        assert args.env is None
        assert args.n == 7

    def test_workload_and_env_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        env = '{"adversary": {"kind": "drop-all"}}'
        assert main(["run", "--workload", "stable", "--env", env, "--n", "3"]) == 2
        assert "not both" in capsys.readouterr().out

    def test_fault_plan_violating_the_model_exits_2_with_one_line(self, capsys):
        from repro.cli import main

        assert main(["run", "--workload", "coordinator-crash", "--n", "3", "--ts", "0"]) == 2
        assert capsys.readouterr().out.strip() == (
            "crash of p0 at 0.0 violates the model: no failures at or after ts=0.0"
        )


class TestCliCommands:
    def test_list_protocols(self, capsys):
        assert main(["list-protocols"]) == 0
        output = capsys.readouterr().out
        assert "modified-paxos" in output
        assert "rotating-coordinator" in output

    def test_list_protocols_prints_plain_summaries(self, capsys):
        assert main(["list-protocols"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        for line in lines:
            assert "`" not in line and ":class:" not in line

    def test_run_stable(self, capsys):
        exit_code = main(
            ["run", "--protocol", "modified-paxos", "--workload", "stable", "--n", "3",
             "--seed", "3", "--rho", "0.0"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "run report" in output
        assert "safety                      : OK" in output

    def test_run_unknown_protocol_fails_cleanly(self, capsys):
        exit_code = main(["run", "--protocol", "raft", "--workload", "stable", "--n", "3"])
        assert exit_code == 2
        assert "unknown protocol" in capsys.readouterr().out

    def test_run_with_timeline(self, capsys):
        exit_code = main(
            ["run", "--protocol", "modified-paxos", "--workload", "stable", "--n", "3",
             "--seed", "2", "--timeline"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "per-process timeline:" in output
        assert "entered session" in output

    def test_run_baseline_workload(self, capsys):
        exit_code = main(
            ["run", "--protocol", "rotating-coordinator", "--workload", "coordinator-crash",
             "--n", "5", "--seed", "1"]
        )
        assert exit_code == 0
        assert "rotating-coordinator" in capsys.readouterr().out

    def test_run_smr_workload(self, capsys):
        exit_code = main(
            ["run", "--workload", "smr-stable", "--n", "3", "--seed", "1",
             "--commands", "2", "--target-pid", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "smr run report" in output
        assert "replicas agree              : OK" in output
        assert "cmd-0000" in output

    def test_run_smr_rejects_foreign_protocol(self, capsys):
        exit_code = main(
            ["run", "--protocol", "traditional-paxos", "--workload", "smr-stable",
             "--n", "3"]
        )
        assert exit_code == 2
        assert "multi-paxos-smr" in capsys.readouterr().out

    def test_run_smr_schedule_past_horizon_fails_cleanly(self, capsys):
        exit_code = main(
            ["run", "--workload", "smr-stable", "--n", "3", "--commands", "2",
             "--command-start", "10000.0"]
        )
        assert exit_code == 2
        output = capsys.readouterr().out
        assert "cmd-0000" in output and "horizon" in output

    def test_experiments_smoke(self, tmp_path, capsys):
        exit_code = main(
            ["experiments", "--scale", "smoke", "--experiment", "E7", "--out", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "experiments_report.md").exists()
