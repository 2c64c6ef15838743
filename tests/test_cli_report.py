"""Tests for the CLI (`repro.cli`) and the run report renderer (`repro.analysis.report`)."""

import pytest

from repro.analysis.invariants import InvariantReport
from repro.analysis.report import render_run_report
from repro.cli import build_parser, main
from repro.core.modified_paxos import ModifiedPaxosBuilder
from repro.harness.runner import run_scenario
from repro.workloads.registry import WORKLOADS
from repro.workloads.restarts import restart_after_stability_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import diverge_slot_zero_after_each_run, make_params


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
        report = render_run_report(run_scenario(scenario, "modified-paxos"))
        assert "highest session reached" in report
        assert "crash" in scenario.fault_plan.describe()


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

    @pytest.mark.parametrize("faults, event", [
        ({"kind": "explicit", "params": {"events": [{"time": -1, "pid": 0, "kind": "crash"}]}},
         "crash p0 @ -1"),
        ({"kind": "crash-forever", "params": {"pids": [1], "time": -2}}, "crash p1 @ -2"),
    ])
    def test_fault_event_at_a_negative_time_exits_2_naming_it(self, faults, event, capsys):
        import json

        from repro.cli import main

        env = json.dumps({"adversary": {"kind": "benign"}, "faults": faults})
        assert main(["run", "--env", env, "--n", "3"]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert f"fault event {event} " in out

    @pytest.mark.parametrize("argv, message", [
        (["--workload", "stable", "--delta", "0"], "delta must be positive and finite, got 0.0"),
        (["--workload", "stable", "--delta", "nan"], "delta must be positive and finite, got nan"),
        (["--workload", "stable", "--delta", "inf"], "delta must be positive and finite, got inf"),
        (["--workload", "stable", "--epsilon", "-1"], "epsilon must be positive and finite, got -1.0"),
        (["--workload", "stable", "--rho", "2"], "rho must be in [0, 1), got 2.0"),
        (["--workload", "stable", "--rho", "nan"], "rho must be in [0, 1), got nan"),
        (["--env", '{"adversary": {"kind": "benign"}}', "--ts", "nan"],
         "ts must be finite and non-negative, got nan"),
        (["--workload", "partitioned-chaos", "--ts", "nan"], "ts must be finite and non-negative, got nan"),
        (["--workload", "smr-stable", "--commands", "-1"], "ScheduleSpec parameters must be finite"),
        (["--workload", "smr-stable", "--command-interval", "-1"], "ScheduleSpec parameters must be finite"),
        (["--workload", "smr-stable", "--command-start", "nan"], "ScheduleSpec parameters must be finite"),
        (["--workload", "smr-stable", "--command-start", "inf"], "ScheduleSpec parameters must be finite"),
    ])
    def test_a_bad_timing_or_schedule_value_exits_2_with_one_line(self, argv, message, capsys):
        assert main(["run", "--n", "3", *argv]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith(message)

    @staticmethod
    def explicit_env(*events):
        import json

        return json.dumps({"adversary": {"kind": "benign"},
                           "faults": {"kind": "explicit", "params": {"events": list(events)}}})

    CRASH_AT_1 = {"time": 1, "pid": 0, "kind": "crash"}
    RESTART_AT_1 = {"time": 1, "pid": 0, "kind": "restart"}

    @pytest.mark.parametrize("events", [(CRASH_AT_1, RESTART_AT_1), (RESTART_AT_1, CRASH_AT_1)])
    def test_crash_and_restart_at_one_time_run_in_either_order(self, events, capsys):
        from repro.cli import main

        assert main(["run", "--env", self.explicit_env(*events), "--n", "3"]) == 0
        assert "faults: crash p0 @ 1; restart p0 @ 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("events", [(CRASH_AT_1, RESTART_AT_1), (RESTART_AT_1, CRASH_AT_1)])
    def test_a_second_crash_at_the_time_of_a_restart_exits_2_naming_it(self, events, capsys):
        from repro.cli import main

        earlier = {"time": 0.5, "pid": 0, "kind": "crash"}
        assert main(["run", "--env", self.explicit_env(earlier, *events), "--n", "3"]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "p0 crashed twice without a restart (at 1.0)" in out


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

    def test_allow_unsafe_run_fails_on_a_violated_invariant(self, capsys, monkeypatch):
        def forced_violation(trace, n):
            return InvariantReport(name="forced", checked=1, violations=["forced violation"])

        monkeypatch.setattr(
            ModifiedPaxosBuilder, "invariant_checks", lambda self: {"forced": forced_violation}
        )
        exit_code = main(["run", "--workload", "stable", "--n", "3", "--allow-unsafe"])
        output = capsys.readouterr().out
        assert "safety                      : OK" in output
        assert "forced violation" in output
        assert exit_code == 1

    def test_allow_unsafe_run_fails_on_a_safety_violation(self, capsys, monkeypatch):
        from repro.consensus.spec import SafetyReport
        from repro.harness import runner

        unsafe = SafetyReport(valid=False, violations=["agreement: forced"])
        monkeypatch.setattr(runner, "check_safety", lambda simulator, expected_deciders: unsafe)
        exit_code = main(["run", "--workload", "stable", "--n", "3", "--allow-unsafe"])
        assert "agreement: forced" in capsys.readouterr().out
        assert exit_code == 1

    def test_allow_unsafe_smr_run_reports_a_slot_conflict(self, capsys, monkeypatch):
        diverge_slot_zero_after_each_run(monkeypatch)
        exit_code = main(["run", "--workload", "smr-stable", "--n", "5", "--commands", "5",
                          "--seed", "1", "--allow-unsafe"])
        output = capsys.readouterr().out
        assert output.startswith("smr run report: ")
        assert "safety                      : agreement: slot 0: " in output
        assert "run failed" not in output
        assert exit_code == 1

    def test_enforced_smr_run_fails_on_a_slot_conflict(self, capsys, monkeypatch):
        diverge_slot_zero_after_each_run(monkeypatch)
        exit_code = main(["run", "--workload", "smr-stable", "--n", "5", "--commands", "5",
                          "--seed", "1"])
        output = capsys.readouterr().out
        assert output.startswith("run failed: agreement: slot 0: ")
        assert exit_code == 1

    def test_enforced_run_reports_a_violated_invariant_instead_of_raising(
        self, capsys, monkeypatch
    ):
        def forced_violation(trace, n):
            return InvariantReport(name="forced", checked=1, violations=["forced violation"])

        monkeypatch.setattr(
            ModifiedPaxosBuilder, "invariant_checks", lambda self: {"forced": forced_violation}
        )
        exit_code = main(["run", "--workload", "stable", "--n", "3"])
        output = capsys.readouterr().out
        assert output.startswith("run failed: ")
        assert "forced violation" in output
        assert exit_code == 1

    def test_enforced_run_reports_a_safety_violation_instead_of_raising(
        self, capsys, monkeypatch
    ):
        from repro.consensus.spec import SafetyReport
        from repro.harness import runner

        unsafe = SafetyReport(valid=False, violations=["agreement: forced"])
        monkeypatch.setattr(runner, "check_safety", lambda simulator, expected_deciders: unsafe)
        exit_code = main(["run", "--workload", "stable", "--n", "3"])
        output = capsys.readouterr().out
        assert output.startswith("run failed: ")
        assert "agreement: forced" in output
        assert exit_code == 1

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
        assert "smr run report: multi-paxos-smr scenario=stable-n3 (2 commands over 1 replicas)\n" in output
        assert "replicas agree              : OK" in output
        assert "cmd-0000" in output
        assert "unlearned commands" not in output

    def test_run_smr_report_names_the_unlearned_commands(self, capsys):
        # cmd-0003 and cmd-0004 are scheduled at p3 and p4, which crash for good.
        exit_code = main(["run", "--workload", "smr-chaos", "--n", "5", "--commands", "5"])
        assert exit_code == 1
        lines = capsys.readouterr().out.splitlines()
        agree = lines.index("replicas agree              : OK")
        assert lines[agree + 1] == "unlearned commands          : cmd-0003, cmd-0004"

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
