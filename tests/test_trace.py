"""Unit tests for the structured trace (`repro.analysis.trace`)."""

from repro.analysis.trace import TraceRecorder
from repro.harness.runner import run_scenario
from repro.workloads.chaos import partitioned_chaos_scenario
from tests.helpers import make_params, trace_wire_rows


class TestRecording:
    def test_record_and_len(self):
        trace = TraceRecorder()
        trace.record(1.0, "net", "send", pid=0, kind="phase1a")
        trace.record(2.0, "sim", "decide", pid=1, value="v")
        assert len(trace) == 2
        assert [event.event for event in trace] == ["send", "decide"]

    def test_events_returns_copy(self):
        trace = TraceRecorder()
        trace.record(1.0, "sim", "tick")
        events = trace.events
        events.clear()
        assert len(trace) == 1

    def test_events_builds_fresh_objects(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "session_enter", pid=0, session=1)
        trace.record(2.0, "sim", "decide", pid=0, value="v")
        first, second = trace.events, trace.events
        assert first == second
        assert all(a is not b for a, b in zip(first, second))

    def test_fields_keep_their_keyword_order(self):
        trace = TraceRecorder()
        trace.record(1.0, "net", "send", pid=0, dst=2, kind="phase1a", msg_id=11, dropped=False)
        trace.record(2.0, "protocol", "phase2a", pid=1, value="v", ballot=3, session=2)
        assert [list(event.fields) for event in trace] == [
            ["dst", "kind", "msg_id", "dropped"], ["value", "ballot", "session"],
        ]


class TestSimulatorTrace:
    def test_a_run_traces_no_per_message_rows(self):
        scenario = partitioned_chaos_scenario(9, params=make_params(rho=0.01), ts=10.0, seed=1)
        simulator = run_scenario(scenario, "modified-paxos").simulator
        trace = simulator.trace
        assert trace.filter("decide") and trace.filter("session_enter")
        assert not trace.filter(category="net")
        assert not trace.filter("timer")
        assert len(trace) < simulator.events_processed / 10

    def _run(self):
        scenario = partitioned_chaos_scenario(5, params=make_params(rho=0.01), ts=10.0, seed=2)
        return run_scenario(scenario, "modified-paxos").simulator

    def test_wire_rows_helper_leaves_the_run_unchanged(self, monkeypatch):
        """The test-only per-message rows add to the trace but change nothing else."""
        plain = self._run()
        trace_wire_rows(monkeypatch)
        wired = self._run()
        assert wired.events_processed == plain.events_processed
        assert wired.decisions == plain.decisions
        assert wired.network.monitor.stats == plain.network.monitor.stats
        wire = {"send", "deliver", "deliver_to_crashed", "timer"}
        assert [event for event in wired.trace if event.event not in wire] == plain.trace.events
        assert len(wired.trace) > 10 * len(plain.trace)

    def test_wire_rows_helper_records_the_per_message_field_layout(self, monkeypatch):
        trace_wire_rows(monkeypatch)
        trace = self._run().trace
        layouts = {
            ("net", "send"): ["dst", "kind", "msg_id", "dropped"],
            ("net", "deliver"): ["src", "kind", "msg_id"],
            ("node", "timer"): ["name"],
        }
        for (category, event), keys in layouts.items():
            rows = trace.filter(category=category, event=event)
            assert rows
            assert all(list(row.fields) == keys for row in rows)
        assert len(trace.filter("send")) == self._run().network.monitor.stats.sent


class TestQueries:
    def _populate(self):
        trace = TraceRecorder()
        trace.record(1.0, "protocol", "session_enter", pid=0, session=0)
        trace.record(2.0, "protocol", "session_enter", pid=1, session=1)
        trace.record(3.0, "protocol", "start_phase1", pid=0, session=1)
        trace.record(4.0, "node", "crash", pid=1)
        return trace

    def test_filter_by_event_and_pid(self):
        trace = self._populate()
        assert len(trace.filter(event="session_enter")) == 2
        assert len(trace.filter(event="session_enter", pid=0)) == 1
        assert len(trace.filter(category="node")) == 1

    def test_filter_by_tuple_of_events_keeps_record_order(self):
        trace = self._populate()
        matches = trace.filter(event=("start_phase1", "session_enter", "absent"))
        assert [(e.time, e.event) for e in matches] == [
            (1.0, "session_enter"),
            (2.0, "session_enter"),
            (3.0, "start_phase1"),
        ]
        assert trace.filter(event=("session_enter", "crash"), pid=1)[-1].event == "crash"
