"""Unit tests for the SMR building blocks: log, state machines, workload, messages."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.smr.log import ReplicatedLog
from repro.smr.messages import MultiPhase1b
from repro.smr.state_machine import AppendOnlyLedger, KeyValueStore
from repro.smr.workload import ScheduleSpec


class TestReplicatedLog:
    def test_learn_is_idempotent(self):
        log = ReplicatedLog()
        assert log.learn(0, "a") is True
        assert log.learn(0, "a") is False
        assert 0 in log and 5 not in log
        assert log.snapshot() == {0: "a"}

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
    def test_set(self):
        kv = KeyValueStore()
        assert kv.apply(("set", "y", 2)) == 2
        kv.apply(("set", "x", 1))
        assert kv.digest() == (("x", 1), ("y", 2))
        assert kv.applied_count == 2

    def test_delete(self):
        kv = KeyValueStore()
        kv.apply(("set", "x", 1))
        assert kv.apply(("delete", "x")) == 1
        assert kv.digest() == ()
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
        assert ledger.digest() == ("'a'", "'b'")

    def test_digest_reflects_order(self):
        left = AppendOnlyLedger()
        right = AppendOnlyLedger()
        for command in ["a", "b"]:
            left.apply(command)
        for command in ["b", "a"]:
            right.apply(command)
        assert left.digest() != right.digest()


class TestScheduleExpand:
    def test_entries_sort_by_time_with_ties_in_declaration_order(self):
        spec = ScheduleSpec(entries=(
            (0, 5.0, "b", "cmd-b"), (0, 1.0, "a", "cmd-a"), (0, 5.0, "c", "cmd-c"), (1, 1.0, "d", "cmd-d"),
        ))
        assert spec.expand(2) == {
            0: [(1.0, "a", "cmd-a"), (5.0, "b", "cmd-b"), (5.0, "c", "cmd-c")],
            1: [(1.0, "d", "cmd-d")],
        }

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec(entries=((0, -1.0, "a", "cmd"),))

    def test_empty_schedule(self):
        assert ScheduleSpec().expand(3) == {}

    def test_uniform_round_robin(self):
        expanded = ScheduleSpec(num_commands=4, start=2.0, interval=0.5).expand(3)
        assert expanded == {
            0: [(2.0, "cmd-0000", ("set", "key-0", "value-0")),
                (3.5, "cmd-0003", ("set", "key-3", "value-3"))],
            1: [(2.5, "cmd-0001", ("set", "key-1", "value-1"))],
            2: [(3.0, "cmd-0002", ("set", "key-2", "value-2"))],
        }

    def test_target_pid(self):
        expanded = ScheduleSpec(num_commands=4, start=1.0, interval=1.0, target_pid=3).expand(5)
        assert list(expanded) == [3] and len(expanded[3]) == 4

    def test_target_pid_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            ScheduleSpec(num_commands=1, start=0.0, interval=1.0, target_pid=7).expand(3)

    def test_uniform_command_ids_unique(self):
        expanded = ScheduleSpec(num_commands=10, start=0.0, interval=0.1).expand(3)
        ids = [command_id for entries in expanded.values() for _, command_id, _ in entries]
        assert len(set(ids)) == 10


class TestMultiPhase1bHelpers:
    def test_dict_conversions(self):
        message = MultiPhase1b(
            mbal=7,
            votes=((0, (3, "a")), (2, (5, "b"))),
            decided=((1, "x"),),
        )
        assert message.votes_dict() == {0: (3, "a"), 2: (5, "b")}
