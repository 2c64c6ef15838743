"""Unit tests for the event queue (`repro.sim.events`) and the run loop that pops it.

The queue only fills; :meth:`repro.sim.simulator.Simulator.run` pops it.
These tests push onto a one-process simulator's queue and drive ``run``.
"""

from tests.helpers import queue_simulator


def fired_by(simulator, until=None, max_events=None):
    """Run ``simulator`` and return how many events fired."""
    before = simulator.events_processed
    simulator.run(until=until, max_events=max_events)
    return simulator.events_processed - before


class TestOrdering:
    def test_pops_in_time_order(self):
        simulator, queue = queue_simulator()
        calls = []
        for time, name in ((3.0, "c"), (1.0, "a"), (2.0, "b")):
            queue.push(time, calls.append, (name,))
        simulator.run()
        assert calls == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        simulator, queue = queue_simulator()
        calls = []
        for name in ("first", "second", "third"):
            queue.push(5.0, calls.append, (name,))
        simulator.run()
        assert calls == ["first", "second", "third"]

    def test_push_returns_consecutive_sequence_numbers(self):
        _, queue = queue_simulator()
        assert [queue.push(float(10 - i), print) for i in range(4)] == [0, 1, 2, 3]

    def test_sequence_numbers_keep_counting_across_pops_and_cancels(self):
        simulator, queue = queue_simulator()
        first = queue.push(1.0, list)
        queue.cancel(queue.push(2.0, list))
        simulator.run()
        assert queue.push(3.0, list) == first + 2

    def test_entries_pushed_while_draining_fire_after_earlier_same_time_entries(self):
        simulator, queue = queue_simulator()
        calls = []
        queue.push(1.0, lambda: (calls.append("a"), queue.push(1.0, calls.append, ("c",))))
        queue.push(1.0, calls.append, ("b",))
        simulator.run()
        assert calls == ["a", "b", "c"]


class TestCancellation:
    def test_cancelled_entries_are_skipped(self):
        simulator, queue = queue_simulator()
        calls = []
        queue.push(1.0, calls.append, ("keep",))
        drop = queue.push(0.5, calls.append, ("drop",))
        queue.cancel(drop)
        simulator.run()
        assert calls == ["keep"]

    def test_cancelling_one_of_two_same_time_entries_keeps_the_other(self):
        simulator, queue = queue_simulator()
        calls = []
        first = queue.push(1.0, calls.append, ("first",))
        queue.push(1.0, calls.append, ("second",))
        queue.cancel(first)
        simulator.run()
        assert calls == ["second"]

    def test_cancelling_every_entry_empties_the_queue(self):
        simulator, queue = queue_simulator()
        for seq in [queue.push(float(time), list) for time in (3, 1, 2)]:
            queue.cancel(seq)
        assert fired_by(simulator) == 0
        assert queue._heap == [] and queue._cancelled == set()

    def test_cancel_marks_are_released_as_their_entries_are_skipped(self):
        simulator, queue = queue_simulator()
        drop = queue.push(1.0, list)
        queue.push(2.0, list)
        queue.cancel(drop)
        assert queue._cancelled == {drop}
        # The cancelled top is discarded even though the live entry lies
        # beyond the horizon.
        assert fired_by(simulator, until=1.5) == 0
        assert queue._cancelled == set()
        assert [entry[1] for entry in queue._heap] == [drop + 1]


class TestHorizon:
    def test_run_respects_the_horizon(self):
        simulator, queue = queue_simulator()
        calls = []
        queue.push(1.0, calls.append, ("early",))
        queue.push(5.0, calls.append, ("late",))
        assert fired_by(simulator, until=2.0) == 1 and calls == ["early"]
        assert fired_by(simulator, until=2.0) == 0
        # The late entry was not consumed.
        assert fired_by(simulator, until=5.0) == 1 and calls == ["early", "late"]

    def test_run_skips_cancelled_entries(self):
        simulator, queue = queue_simulator()
        calls = []
        drop = queue.push(1.0, calls.append, ("drop",))
        queue.push(2.0, calls.append, ("keep",))
        queue.cancel(drop)
        assert fired_by(simulator, until=10.0, max_events=1) == 1 and calls == ["keep"]
        assert fired_by(simulator, until=10.0) == 0

    def test_each_entry_fires_as_action_of_args_at_its_time(self):
        simulator, queue = queue_simulator()
        calls = []
        queue.push(1.0, lambda *args: calls.append((simulator.now(), args)), ("a",))
        queue.push(1.0, lambda *args: calls.append((simulator.now(), args)))
        simulator.run(until=2.0, max_events=1)
        assert calls == [(1.0, ("a",))]
        simulator.run(until=2.0, max_events=1)
        assert calls == [(1.0, ("a",)), (1.0, ())]

    def test_horizon_is_inclusive(self):
        simulator, queue = queue_simulator()
        calls = []
        queue.push(2.0, calls.append, ("due",))
        simulator.run(until=2.0)
        assert calls == ["due"]

    def test_a_run_of_cancelled_entries_is_skipped_in_one_step(self):
        simulator, queue = queue_simulator()
        calls = []
        for time in (1.0, 1.0, 1.5, 2.0):
            queue.cancel(queue.push(time, calls.append, ("drop",)))
        queue.push(2.0, calls.append, ("keep",))
        assert fired_by(simulator, until=2.0, max_events=1) == 1 and calls == ["keep"]
        assert fired_by(simulator) == 0

    def test_an_empty_queue_fires_nothing(self):
        simulator, _ = queue_simulator()
        assert fired_by(simulator, until=10.0) == 0


class TestExecution:
    def test_thunks_run_with_no_arguments(self):
        simulator, queue = queue_simulator()
        calls = []
        queue.push(1.0, lambda: calls.append("x"))
        simulator.run()
        assert calls == ["x"]

    def test_args_are_passed_to_action(self):
        simulator, queue = queue_simulator()
        calls = []
        queue.push(1.0, calls.append, ("payload",))
        simulator.run()
        assert calls == ["payload"]
