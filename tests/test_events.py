"""Unit tests for the event queue (`repro.sim.events`)."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventQueue


def collect_labels(queue):
    labels = []
    while queue:
        labels.append(queue.pop().label)
    return labels


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, lambda: None, label="c")
        queue.push(1.0, lambda: None, label="a")
        queue.push(2.0, lambda: None, label="b")
        assert collect_labels(queue) == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        for label in ("first", "second", "third"):
            queue.push(5.0, lambda: None, label=label)
        assert collect_labels(queue) == ["first", "second", "third"]

    def test_snapshot_lists_events_in_firing_order_without_popping(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None, label="b")
        queue.push(1.0, lambda: None, label="a")
        snapshot = queue.snapshot()
        assert [event.label for event in snapshot] == ["a", "b"]
        assert len(queue) == 2


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None, label="keep")
        drop = queue.push(0.5, lambda: None, label="drop")
        queue.cancel(drop)
        assert queue.pop().label == "keep"
        assert keep.cancelled is False

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(handle)
        assert len(queue) == 1

    def test_double_cancel_raises(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.cancel(handle)
        with pytest.raises(SchedulingError):
            queue.cancel(handle)

    def test_pop_empty_raises(self):
        queue = EventQueue()
        with pytest.raises(SchedulingError):
            queue.pop()

    def test_clear_empties_the_queue(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        assert not queue

    def test_handle_exposes_time_and_label(self):
        queue = EventQueue()
        handle = queue.push(4.5, lambda: None, label="hello")
        assert handle.time == 4.5
        assert handle.label == "hello"


class TestCancelAfterFire:
    """Regression tests: cancelling an already-fired event must not corrupt
    the live count (it used to decrement ``_live`` a second time)."""

    def test_cancel_after_pop_is_tracked_noop(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None, label="fires")
        queue.push(2.0, lambda: None, label="stays")
        event = queue.pop()
        assert event.label == "fires"
        assert handle.fired is True
        queue.cancel(handle)
        assert handle.cancelled is True
        assert queue.stale_cancels == 1
        assert len(queue) == 1  # previously this dropped to 0
        assert bool(queue) is True
        assert queue.pop().label == "stays"
        assert len(queue) == 0

    def test_cancel_after_clear_is_tracked_noop(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.clear()
        queue.cancel(handle)
        assert queue.stale_cancels == 1
        assert len(queue) == 0

    def test_double_cancel_after_fire_still_raises(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.pop()
        queue.cancel(handle)
        with pytest.raises(SchedulingError):
            queue.cancel(handle)

    def test_handle_cancel_routes_through_queue(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None, label="stays")
        handle.cancel()
        assert len(queue) == 1
        assert queue.pop().label == "stays"

    def test_foreign_handle_cannot_cancel_local_event(self):
        # Two queues allocate the same sequence numbers; a handle from one
        # must not cancel the other's events.
        mine, other = EventQueue(), EventQueue()
        foreign = other.push(1.0, lambda: None, label="other's")
        mine.push(1.0, lambda: None, label="mine")
        mine.cancel(foreign)
        assert mine.stale_cancels == 1
        assert len(mine) == 1
        assert mine.pop().label == "mine"
        # The wrong-queue cancel never touched other's bookkeeping; its
        # event is still live there (only the handle got marked).
        assert len(other) == 1
        assert other.pop().label == "other's"


class TestNonCancellable:
    def test_fast_path_returns_no_handle(self):
        queue = EventQueue()
        assert queue.push(1.0, lambda: None, cancellable=False) is None

    def test_fast_path_events_still_fire_in_order(self):
        queue = EventQueue()
        calls = []
        queue.push(2.0, calls.append, args=("b",), cancellable=False)
        queue.push(1.0, calls.append, args=("a",), cancellable=False)
        queue.push(1.5, calls.append, args=("mid",))
        while queue:
            event = queue.pop()
            event.action(*event.args)
        assert calls == ["a", "mid", "b"]

    def test_cancelling_none_handle_raises(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, cancellable=False)
        with pytest.raises(SchedulingError):
            queue.cancel(None)

    def test_len_counts_fast_path_events(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, cancellable=False)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2


class TestPopBefore:
    def test_pop_before_respects_horizon(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, label="early")
        queue.push(5.0, lambda: None, label="late")
        entry = queue.pop_before(2.0)
        assert entry is not None and entry[4] == "early"
        assert queue.pop_before(2.0) is None
        assert len(queue) == 1  # the late event was not consumed

    def test_pop_before_skips_cancelled_entries(self):
        queue = EventQueue()
        drop = queue.push(1.0, lambda: None, label="drop")
        queue.push(2.0, lambda: None, label="keep")
        queue.cancel(drop)
        entry = queue.pop_before(10.0)
        assert entry is not None and entry[4] == "keep"
        assert queue.pop_before(10.0) is None

    def test_pop_before_returns_the_raw_time_seq_action_args_label_tuple(self):
        queue = EventQueue()
        queue.push(1.0, print, label="first", args=("a",))
        queue.push(1.0, len, label="second", args=("b",), cancellable=False)
        assert queue.pop_before(2.0) == (1.0, 0, print, ("a",), "first")
        assert queue.pop_before(2.0) == (1.0, 1, len, ("b",), "second")

    def test_pop_before_empty_returns_none(self):
        assert EventQueue().pop_before(10.0) is None


class TestExecution:
    def test_actions_are_preserved(self):
        queue = EventQueue()
        calls = []
        queue.push(1.0, lambda: calls.append("x"))
        queue.pop().action()
        assert calls == ["x"]

    def test_args_are_passed_to_action(self):
        queue = EventQueue()
        calls = []
        queue.push(1.0, calls.append, args=("payload",))
        event = queue.pop()
        event.action(*event.args)
        assert calls == ["payload"]
