"""Unit tests for the event queue (`repro.sim.events`)."""

from repro.sim.events import EventQueue

INF = float("inf")


def drain(queue, horizon=INF):
    """Fire every live entry at or before ``horizon``; return the entries popped."""
    entries = []
    while True:
        entry = queue.pop_before(horizon)
        if entry is None:
            return entries
        entry[2](*entry[3])
        entries.append(entry)


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        calls = []
        for time, name in ((3.0, "c"), (1.0, "a"), (2.0, "b")):
            queue.push(time, calls.append, (name,))
        drain(queue)
        assert calls == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        calls = []
        for name in ("first", "second", "third"):
            queue.push(5.0, calls.append, (name,))
        drain(queue)
        assert calls == ["first", "second", "third"]

    def test_push_returns_consecutive_sequence_numbers(self):
        queue = EventQueue()
        assert [queue.push(float(10 - i), print) for i in range(4)] == [0, 1, 2, 3]

    def test_sequence_numbers_keep_counting_across_pops_and_cancels(self):
        queue = EventQueue()
        first = queue.push(1.0, print)
        queue.cancel(queue.push(2.0, print))
        drain(queue)
        assert queue.push(3.0, print) == first + 2

    def test_entries_pushed_while_draining_fire_after_earlier_same_time_entries(self):
        queue = EventQueue()
        calls = []
        queue.push(1.0, lambda: (calls.append("a"), queue.push(1.0, calls.append, ("c",))))
        queue.push(1.0, calls.append, ("b",))
        drain(queue)
        assert calls == ["a", "b", "c"]


class TestCancellation:
    def test_cancelled_entries_are_skipped(self):
        queue = EventQueue()
        calls = []
        queue.push(1.0, calls.append, ("keep",))
        drop = queue.push(0.5, calls.append, ("drop",))
        queue.cancel(drop)
        drain(queue)
        assert calls == ["keep"]

    def test_cancelling_one_of_two_same_time_entries_keeps_the_other(self):
        queue = EventQueue()
        calls = []
        first = queue.push(1.0, calls.append, ("first",))
        queue.push(1.0, calls.append, ("second",))
        queue.cancel(first)
        drain(queue)
        assert calls == ["second"]

    def test_cancelling_every_entry_empties_the_queue(self):
        queue = EventQueue()
        for seq in [queue.push(float(time), print) for time in (3, 1, 2)]:
            queue.cancel(seq)
        assert queue.pop_before(INF) is None
        assert queue._heap == [] and queue._cancelled == set()

    def test_cancel_marks_are_released_as_their_entries_are_skipped(self):
        queue = EventQueue()
        drop = queue.push(1.0, print)
        queue.push(2.0, print)
        queue.cancel(drop)
        assert queue._cancelled == {drop}
        # The cancelled top is discarded even though the live entry lies
        # beyond the horizon.
        assert queue.pop_before(1.5) is None
        assert queue._cancelled == set()
        assert [entry[1] for entry in queue._heap] == [drop + 1]


class TestPopBefore:
    def test_pop_before_respects_horizon(self):
        queue = EventQueue()
        queue.push(1.0, print, ("early",))
        queue.push(5.0, print, ("late",))
        entry = queue.pop_before(2.0)
        assert entry is not None and entry[3] == ("early",)
        assert queue.pop_before(2.0) is None
        # The late entry was not consumed.
        assert queue.pop_before(5.0)[3] == ("late",)

    def test_pop_before_skips_cancelled_entries(self):
        queue = EventQueue()
        drop = queue.push(1.0, print, ("drop",))
        queue.push(2.0, print, ("keep",))
        queue.cancel(drop)
        entry = queue.pop_before(10.0)
        assert entry is not None and entry[3] == ("keep",)
        assert queue.pop_before(10.0) is None

    def test_pop_before_returns_the_raw_time_seq_action_args_tuple(self):
        queue = EventQueue()
        queue.push(1.0, print, ("a",))
        queue.push(1.0, len)
        assert queue.pop_before(2.0) == (1.0, 0, print, ("a",))
        assert queue.pop_before(2.0) == (1.0, 1, len, ())

    def test_horizon_is_inclusive(self):
        queue = EventQueue()
        queue.push(2.0, print, ("due",))
        assert queue.pop_before(2.0)[3] == ("due",)

    def test_a_run_of_cancelled_entries_is_skipped_in_one_call(self):
        queue = EventQueue()
        for time in (1.0, 1.0, 1.5, 2.0):
            queue.cancel(queue.push(time, print))
        queue.push(2.0, print, ("keep",))
        assert queue.pop_before(2.0)[3] == ("keep",)
        assert queue.pop_before(INF) is None

    def test_pop_before_empty_returns_none(self):
        assert EventQueue().pop_before(10.0) is None


class TestExecution:
    def test_thunks_run_with_no_arguments(self):
        queue = EventQueue()
        calls = []
        queue.push(1.0, lambda: calls.append("x"))
        drain(queue)
        assert calls == ["x"]

    def test_args_are_passed_to_action(self):
        queue = EventQueue()
        calls = []
        queue.push(1.0, calls.append, ("payload",))
        drain(queue)
        assert calls == ["payload"]
