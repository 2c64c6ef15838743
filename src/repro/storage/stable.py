"""Per-process durable key/value store.

The store is deliberately simple — a dict plus a write counter —
because what matters for the reproduction is the *crash semantics*: values
written before a crash are visible after restart, values held only in the
protocol object's attributes are not.  Values must be picklable/copyable
plain data.  Storing a mutable object and mutating it in place would defeat
the crash model, so every write and every read deep-copies the
value (as do :meth:`StableStore.snapshot` and :meth:`StableStore.restore`).
A copy costs time in proportion to the value, so protocols should persist
small values: the SMR replica, for one, writes one key per log slot rather
than its whole log.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator

from repro.errors import StorageError

__all__ = ["StableStore"]


class StableStore:
    """Durable key/value storage for one process.

    Values are deep-copied on write and read, so protocols cannot
    accidentally share mutable state with their "disk".

    Args:
        owner: Process id, used only for error messages and tracing.
    """

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._data: Dict[str, Any] = {}
        self._writes = 0

    def __repr__(self) -> str:
        return f"StableStore(owner={self.owner}, keys={sorted(self._data)})"

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._data))

    @property
    def write_count(self) -> int:
        """Number of writes performed (used to account for sync costs)."""
        return self._writes

    def put(self, key: str, value: Any) -> None:
        """Durably store ``value`` under ``key``."""
        if not isinstance(key, str):
            raise StorageError(f"stable-store keys must be strings, got {type(key).__name__}")
        self._data[key] = copy.deepcopy(value)
        self._writes += 1

    def get(self, key: str, default: Any = None) -> Any:
        """Read the value stored under ``key`` or ``default`` if absent."""
        if key not in self._data:
            return default
        return copy.deepcopy(self._data[key])

    def update(self, values: Dict[str, Any]) -> None:
        """Store several keys atomically (one logical write)."""
        for key in values:
            if not isinstance(key, str):
                raise StorageError("stable-store keys must be strings")
        for key, value in values.items():
            self._data[key] = copy.deepcopy(value)
        self._writes += 1

    def snapshot(self) -> Dict[str, Any]:
        """A deep copy of the whole store (for checkpointing and assertions)."""
        return copy.deepcopy(self._data)

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Replace the store contents with a previously taken snapshot."""
        self._data = copy.deepcopy(snapshot)
        self._writes += 1

    def clear(self) -> None:
        """Erase everything (models a disk wipe; not used by the paper's model)."""
        self._data.clear()
        self._writes += 1
