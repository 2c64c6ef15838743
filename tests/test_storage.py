"""Unit tests for stable storage (`repro.storage`)."""

import pytest

from repro.errors import StorageError
from repro.storage.stable import StableStore


class TestStableStoreBasics:
    def test_put_get_roundtrip(self):
        store = StableStore(owner=0)
        store.put("mbal", 17)
        assert store.get("mbal") == 17

    def test_get_default_for_missing_key(self):
        store = StableStore(owner=0)
        assert store.get("missing") is None
        assert store.get("missing", default=5) == 5

    def test_non_string_keys_rejected(self):
        store = StableStore(owner=0)
        with pytest.raises(StorageError):
            store.put(42, "value")
        with pytest.raises(StorageError):
            store.update({3: "value"})

    def test_iter_lists_keys_sorted(self):
        store = StableStore(owner=0)
        store.put("b", 2)
        store.put("a", 1)
        assert list(store) == ["a", "b"]

    def test_update_writes_multiple_keys_as_one_write(self):
        store = StableStore(owner=0)
        before = store.write_count
        store.update({"x": 1, "y": 2})
        assert store.get("x") == 1 and store.get("y") == 2
        assert store.write_count == before + 1

    def test_reads_are_not_counted_as_writes(self):
        store = StableStore(owner=0)
        store.put("x", 1)
        store.get("x")
        store.get("x")
        assert store.write_count == 1


class TestCrashSemantics:
    def test_values_are_deep_copied_on_write(self):
        store = StableStore(owner=0)
        value = {"nested": [1, 2]}
        store.put("state", value)
        value["nested"].append(3)
        assert store.get("state") == {"nested": [1, 2]}

    def test_values_are_deep_copied_on_read(self):
        store = StableStore(owner=0)
        store.put("state", {"nested": [1]})
        read = store.get("state")
        read["nested"].append(99)
        assert store.get("state") == {"nested": [1]}
