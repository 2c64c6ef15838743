"""Unit tests for the structured trace (`repro.analysis.trace`)."""

import gc

from repro.analysis.trace import HOT_FIELDS, TraceEvent, TraceRecorder


class TestRecording:
    def test_record_and_len(self):
        trace = TraceRecorder()
        trace.record(1.0, "net", "send", pid=0, kind="phase1a")
        trace.record(2.0, "sim", "decide", pid=1, value="v")
        assert len(trace) == 2
        assert [event.event for event in trace] == ["send", "decide"]

    def test_disabled_recorder_is_noop(self):
        trace = TraceRecorder(enabled=False)
        trace.record(1.0, "net", "send")
        assert len(trace) == 0

    def test_capacity_stops_recording_and_flags_truncation(self):
        trace = TraceRecorder(capacity=2)
        for i in range(5):
            trace.record(float(i), "sim", "tick")
        assert len(trace) == 2
        assert trace.truncated is True

    def test_events_returns_copy(self):
        trace = TraceRecorder()
        trace.record(1.0, "sim", "tick")
        events = trace.events
        events.clear()
        assert len(trace) == 1


class TestHotRows:
    """The hot recording methods read back exactly as the ``record`` calls they replace."""

    def _record_both(self):
        hot, plain = TraceRecorder(), TraceRecorder()
        hot.record_send(1.0, 0, 2, "phase1a", 11, False)
        plain.record(1.0, "net", "send", pid=0, dst=2, kind="phase1a", msg_id=11, dropped=False)
        hot.record_deliver(2.0, True, 2, 0, "phase1a", 11)
        plain.record(2.0, "net", "deliver", pid=2, src=0, kind="phase1a", msg_id=11)
        hot.record_deliver(3.0, False, 1, 0, "phase1b", 12)
        plain.record(3.0, "net", "deliver_to_crashed", pid=1, src=0, kind="phase1b", msg_id=12)
        hot.record_timer(4.0, 1, "epsilon")
        plain.record(4.0, "node", "timer", pid=1, name="epsilon")
        return hot, plain

    def test_events_equal_record_path_with_same_key_order(self):
        hot, plain = self._record_both()
        assert hot.events == plain.events
        assert [list(e.fields) for e in hot] == [list(e.fields) for e in plain]
        assert [list(e.fields) for e in hot] == [
            list(HOT_FIELDS[name]) for name in ("send", "deliver", "deliver_to_crashed", "timer")
        ]
        assert hot.dump() == plain.dump()

    def test_hot_rows_are_not_gc_tracked(self):
        hot, _ = self._record_both()
        gc.collect()
        assert all(gc.is_tracked(row) is False for row in hot._rows)

    def test_events_builds_fresh_objects(self):
        hot, _ = self._record_both()
        first, second = hot.events, hot.events
        assert first == second
        assert all(a is not b for a, b in zip(first, second))


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

    def test_filter_with_predicate(self):
        trace = self._populate()
        high_sessions = trace.filter(
            event="session_enter", predicate=lambda e: e.fields.get("session", 0) >= 1
        )
        assert len(high_sessions) == 1

    def test_filter_by_tuple_of_events_keeps_record_order(self):
        trace = self._populate()
        matches = trace.filter(event=("start_phase1", "session_enter", "absent"))
        assert [(e.time, e.event) for e in matches] == [
            (1.0, "session_enter"),
            (2.0, "session_enter"),
            (3.0, "start_phase1"),
        ]
        assert trace.filter(event=("session_enter", "crash"), pid=1)[-1].event == "crash"

    def test_first_and_last(self):
        trace = self._populate()
        assert trace.first("session_enter").pid == 0
        assert trace.last("session_enter").pid == 1
        assert trace.first("nonexistent") is None
        assert trace.last("nonexistent") is None

    def test_count(self):
        trace = self._populate()
        assert trace.count("session_enter") == 2
        assert trace.count("crash", category="node") == 1

    def test_dump_renders_and_limits(self):
        trace = self._populate()
        text = trace.dump(limit=2)
        assert "session_enter" in text
        assert "more events" in text
        full = trace.dump()
        assert "crash" in full


class TestTraceEvent:
    def test_describe_contains_fields(self):
        event = TraceEvent(time=1.5, category="protocol", event="decide", pid=3, fields={"v": 1})
        text = event.describe()
        assert "decide" in text and "p3" in text and "v=1" in text

    def test_describe_without_pid(self):
        event = TraceEvent(time=1.5, category="sim", event="tick")
        assert "--" in event.describe()
