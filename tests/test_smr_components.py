"""Unit tests for the SMR building blocks: log, state machines, workload, messages."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.smr.log import ReplicatedLog
from repro.smr.messages import MultiPhase1b
from repro.smr.state_machine import AppendOnlyLedger, KeyValueStore
from repro.smr.workload import CommandSchedule, uniform_schedule


class TestReplicatedLog:
    def test_learn_and_get(self):
        log = ReplicatedLog()
        assert log.learn(0, "a") is True
        assert log.learn(0, "a") is False  # idempotent
        assert log.get(0) == "a"
        assert log.get(5) is None
        assert len(log) == 1

    def test_conflicting_learn_raises(self):
        log = ReplicatedLog()
        log.learn(3, "a")
        with pytest.raises(ProtocolError):
            log.learn(3, "b")

    def test_negative_slot_rejected(self):
        with pytest.raises(ProtocolError):
            ReplicatedLog().learn(-1, "a")

    def test_contiguous_prefix_and_gap(self):
        log = ReplicatedLog()
        log.learn(0, "a")
        log.learn(1, "b")
        log.learn(3, "d")
        assert log.contiguous_prefix() == ["a", "b"]
        assert log.prefix == 2
        assert log.highest_slot == 3
        log.learn(2, "c")
        assert log.contiguous_prefix() == ["a", "b", "c", "d"]
        assert log.prefix == 4

    def test_empty_log_properties(self):
        log = ReplicatedLog()
        assert log.highest_slot == -1
        assert log.contiguous_prefix() == []
        assert log.prefix == 0
        assert log.items_from(0) == ()

    def test_snapshot_restore_roundtrip(self):
        log = ReplicatedLog()
        log.learn(0, "a")
        log.learn(2, "c")
        restored = ReplicatedLog.restore(log.snapshot())
        assert restored.snapshot() == {0: "a", 2: "c"}
        assert ReplicatedLog.restore(None).highest_slot == -1

    def test_iteration_in_slot_order(self):
        log = ReplicatedLog()
        log.learn(2, "c")
        log.learn(0, "a")
        assert log.items_from(0) == ((0, "a"), (2, "c"))
        assert log.items_from(1) == ((2, "c"),)
        assert log.items_from(3) == ()


class TestKeyValueStore:
    def test_set_and_get(self):
        kv = KeyValueStore()
        kv.apply(("set", "x", 1))
        kv.apply(("set", "y", 2))
        assert kv.get("x") == 1
        assert kv.get("missing", default="d") == "d"
        assert len(kv) == 2
        assert kv.applied_count == 2

    def test_delete(self):
        kv = KeyValueStore()
        kv.apply(("set", "x", 1))
        assert kv.apply(("delete", "x")) == 1
        assert kv.get("x") is None
        assert kv.apply(("delete", "x")) is None

    def test_malformed_commands_rejected(self):
        kv = KeyValueStore()
        with pytest.raises(ProtocolError):
            kv.apply("not-a-tuple")
        with pytest.raises(ProtocolError):
            kv.apply(("set", "x"))
        with pytest.raises(ProtocolError):
            kv.apply(("increment", "x"))

    def test_digest_is_order_insensitive_for_same_final_state(self):
        left = KeyValueStore()
        right = KeyValueStore()
        for command in [("set", "a", 1), ("set", "b", 2)]:
            left.apply(command)
        for command in [("set", "b", 2), ("set", "a", 1)]:
            right.apply(command)
        assert left.digest() == right.digest()

    def test_same_prefix_same_digest(self):
        commands = [("set", "a", 1), ("set", "a", 2), ("delete", "a"), ("set", "b", 3)]
        left = KeyValueStore()
        right = KeyValueStore()
        for command in commands:
            left.apply(command)
        for command in commands:
            right.apply(command)
        assert left.digest() == right.digest()


class TestAppendOnlyLedger:
    def test_records_in_order(self):
        ledger = AppendOnlyLedger()
        assert ledger.apply("a") == 0
        assert ledger.apply("b") == 1
        assert ledger.records == ["a", "b"]

    def test_digest_reflects_order(self):
        left = AppendOnlyLedger()
        right = AppendOnlyLedger()
        for command in ["a", "b"]:
            left.apply(command)
        for command in ["b", "a"]:
            right.apply(command)
        assert left.digest() != right.digest()


class TestCommandSchedule:
    def test_add_sorts_by_time(self):
        schedule = CommandSchedule().add(0, 5.0, "b", "cmd-b").add(0, 1.0, "a", "cmd-a")
        assert [entry[1] for entry in schedule.for_pid(0)] == ["a", "b"]
        assert schedule.total_commands == 2
        assert schedule.command_ids == ["a", "b"]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            CommandSchedule().add(0, -1.0, "a", "cmd")

    def test_for_pid_returns_copy(self):
        schedule = CommandSchedule().add(1, 1.0, "a", "cmd")
        entries = schedule.for_pid(1)
        entries.clear()
        assert schedule.total_commands == 1
        assert schedule.for_pid(9) == []

    def test_describe(self):
        schedule = uniform_schedule(3, num_commands=6, start=0.0, interval=1.0)
        assert "6 commands" in schedule.describe()


class TestUniformSchedule:
    def test_round_robin_assignment(self):
        schedule = uniform_schedule(3, num_commands=6, start=2.0, interval=0.5)
        assert schedule.total_commands == 6
        assert len(schedule.for_pid(0)) == 2
        assert len(schedule.for_pid(1)) == 2
        assert len(schedule.for_pid(2)) == 2
        times = [entry[0] for entry in schedule.for_pid(0)]
        assert times == [2.0, 3.5]

    def test_target_pid(self):
        schedule = uniform_schedule(5, num_commands=4, start=1.0, interval=1.0, target_pid=3)
        assert len(schedule.for_pid(3)) == 4
        assert schedule.for_pid(0) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_schedule(0, num_commands=1, start=0.0, interval=1.0)
        with pytest.raises(ConfigurationError):
            uniform_schedule(3, num_commands=1, start=0.0, interval=1.0, target_pid=7)

    def test_command_ids_unique(self):
        schedule = uniform_schedule(3, num_commands=10, start=0.0, interval=0.1)
        assert len(set(schedule.command_ids)) == 10


class TestMultiPhase1bHelpers:
    def test_dict_conversions(self):
        message = MultiPhase1b(
            mbal=7,
            votes=((0, (3, "a")), (2, (5, "b"))),
            decided=((1, "x"),),
        )
        assert message.votes_dict() == {0: (3, "a"), 2: (5, "b")}
