"""Tests for per-process timelines (`repro.analysis.timeline`)."""

from repro.analysis.timeline import Milestone, extract_timelines, render_timelines
from repro.analysis.trace import TraceRecorder
from repro.harness.runner import run_scenario
from repro.workloads.chaos import partitioned_chaos_scenario
from repro.workloads.stable import stable_scenario

from tests.helpers import make_params


def crafted_trace():
    trace = TraceRecorder()
    trace.record(0.0, "node", "start", pid=0, incarnation=1)
    trace.record(0.0, "node", "start", pid=1, incarnation=1)
    trace.record(0.0, "protocol", "session_enter", pid=0, session=0, via="start")
    trace.record(2.0, "node", "crash", pid=1)
    trace.record(4.0, "node", "restart", pid=1, incarnation=2)
    trace.record(5.0, "protocol", "start_phase1", pid=0, ballot=3, session=1)
    trace.record(5.5, "protocol", "phase2a", pid=0, ballot=3, value="v")
    trace.record(6.0, "sim", "decide", pid=0, value="v")
    trace.record(1.0, "net", "send", pid=0, kind="phase1a")  # not a milestone
    return trace


class TestExtraction:
    def test_milestones_grouped_per_process(self):
        timelines = extract_timelines(crafted_trace(), n=2)
        assert [m.label for m in timelines[1].milestones] == ["start", "crash", "restart"]
        labels = [m.label for m in timelines[0].milestones]
        assert "entered session 0 (start)" in labels
        assert "started phase 1 for ballot 3" in labels
        assert "decided 'v'" in labels

    def test_non_milestone_events_ignored(self):
        timelines = extract_timelines(crafted_trace(), n=2)
        assert all("send" not in m.label for m in timelines[0].milestones)

    def test_unknown_pids_ignored(self):
        trace = TraceRecorder()
        trace.record(1.0, "node", "crash", pid=7)
        assert extract_timelines(trace, n=2)[0].milestones == []

    def test_milestone_describe(self):
        assert "decided" in Milestone(time=1.0, label="decided 'v'").describe()


class TestRendering:
    def test_render_contains_every_process_and_ts_markers(self):
        text = render_timelines(crafted_trace(), n=2, ts=4.0)
        assert "p0:" in text and "p1:" in text
        assert "stabilization time TS = 4" in text
        assert "[TS+2.00]" in text  # the decision at t=6 with ts=4

    def test_empty_processes_marked(self):
        trace = TraceRecorder()
        text = render_timelines(trace, n=1)
        assert "(no milestones)" in text


class TestOnRealRuns:
    def test_modified_paxos_run_produces_sensible_timeline(self):
        params = make_params(rho=0.01)
        scenario = partitioned_chaos_scenario(5, params=params, ts=6.0, seed=3)
        result = run_scenario(scenario, "modified-paxos")
        text = render_timelines(result.simulator.trace, 5, ts=6.0)
        assert "entered session" in text
        assert "decided" in text

    def test_rotating_coordinator_timeline_mentions_rounds(self):
        params = make_params(rho=0.01)
        result = run_scenario(stable_scenario(3, params=params, seed=1), "rotating-coordinator")
        text = render_timelines(result.simulator.trace, 3)
        assert "entered round 0" in text
