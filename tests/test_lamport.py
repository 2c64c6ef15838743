"""Unit tests for Lamport logical clocks (`repro.oracle.lamport`)."""

import pytest

from repro.errors import ProtocolError
from repro.oracle.lamport import LamportClock, LogicalTimestamp


class TestLogicalTimestamp:
    def test_total_order_by_counter_then_pid(self):
        assert LogicalTimestamp(1, 5) < LogicalTimestamp(2, 0)
        assert LogicalTimestamp(2, 0) < LogicalTimestamp(2, 1)
        assert not (LogicalTimestamp(2, 1) < LogicalTimestamp(2, 1))

    def test_equality_and_hash(self):
        assert LogicalTimestamp(3, 1) == LogicalTimestamp(3, 1)
        assert len({LogicalTimestamp(3, 1), LogicalTimestamp(3, 1)}) == 1

    def test_comparison_with_other_types(self):
        with pytest.raises(TypeError):
            _ = LogicalTimestamp(1, 1) < 5

    def test_describe(self):
        assert LogicalTimestamp(7, 2).describe() == "7.2"

    def test_sorted_sequence(self):
        stamps = [LogicalTimestamp(2, 1), LogicalTimestamp(1, 3), LogicalTimestamp(2, 0)]
        assert sorted(stamps) == [
            LogicalTimestamp(1, 3),
            LogicalTimestamp(2, 0),
            LogicalTimestamp(2, 1),
        ]


class TestLamportClock:
    def test_tick_increments(self):
        clock = LamportClock(pid=3)
        assert clock.tick() == LogicalTimestamp(1, 3)
        assert clock.tick() == LogicalTimestamp(2, 3)

    def test_observe_jumps_past_received_timestamp(self):
        clock = LamportClock(pid=0)
        after = clock.observe(LogicalTimestamp(10, 4))
        assert after.counter == 11
        assert after > LogicalTimestamp(10, 4)

    def test_observe_of_older_timestamp_still_ticks(self):
        clock = LamportClock(pid=0, start=20)
        after = clock.observe(LogicalTimestamp(3, 4))
        assert after.counter == 21

    def test_sends_after_receive_exceed_received(self):
        sender = LamportClock(pid=1)
        receiver = LamportClock(pid=2)
        message_ts = sender.tick()
        receiver.observe(message_ts)
        assert receiver.tick() > message_ts

    def test_snapshot_restore_roundtrip(self):
        clock = LamportClock(pid=5)
        clock.tick()
        clock.tick()
        restored = LamportClock.restore(pid=5, counter=clock.snapshot())
        assert restored.tick() == LogicalTimestamp(3, 5)

    def test_negative_start_rejected(self):
        with pytest.raises(ProtocolError):
            LamportClock(pid=0, start=-1)

    def test_repr(self):
        assert "pid=4" in repr(LamportClock(pid=4))
