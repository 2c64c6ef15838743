"""Deterministic state machines driven by the replicated log.

Two concrete machines are provided:

* :class:`KeyValueStore` — commands are ``("set", key, value)`` and
  ``("delete", key)`` tuples; reads are local.
* :class:`AppendOnlyLedger` — commands are opaque records appended in log
  order (useful to assert that every replica applies the same sequence).

Both are deliberately pure (no randomness, no time), so applying the same
log prefix on every replica yields identical states — which the integration
tests assert.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Tuple

from repro.errors import ProtocolError

__all__ = ["StateMachine", "KeyValueStore", "AppendOnlyLedger"]


class StateMachine(abc.ABC):
    """A deterministic state machine fed by decided commands in slot order."""

    def __init__(self) -> None:
        self.applied_count = 0

    def apply(self, command: Any) -> Any:
        """Apply one command and return its result."""
        result = self._apply(command)
        self.applied_count += 1
        return result

    @abc.abstractmethod
    def _apply(self, command: Any) -> Any:
        """Subclass hook implementing the actual transition."""

    @abc.abstractmethod
    def digest(self) -> Any:
        """A comparable summary of the current state (for replica checks)."""


class KeyValueStore(StateMachine):
    """A dictionary driven by ``set``/``delete`` commands."""

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[Any, Any] = {}

    def _apply(self, command: Any) -> Any:
        if not isinstance(command, tuple) or not command:
            raise ProtocolError(f"malformed KV command: {command!r}")
        op = command[0]
        if op == "set":
            if len(command) != 3:
                raise ProtocolError(f"malformed set command: {command!r}")
            _, key, value = command
            self._data[key] = value
            return value
        if op == "delete":
            if len(command) != 2:
                raise ProtocolError(f"malformed delete command: {command!r}")
            return self._data.pop(command[1], None)
        raise ProtocolError(f"unknown KV operation {op!r}")

    def get(self, key: Any, default: Any = None) -> Any:
        """Local read (not linearized through the log)."""
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def digest(self) -> Tuple[Tuple[Any, Any], ...]:
        return tuple(sorted(self._data.items(), key=lambda item: repr(item[0])))


class AppendOnlyLedger(StateMachine):
    """Remembers every applied command in order."""

    def __init__(self) -> None:
        super().__init__()
        self._records: List[Any] = []

    def _apply(self, command: Any) -> Any:
        self._records.append(command)
        return len(self._records) - 1

    @property
    def records(self) -> List[Any]:
        return list(self._records)

    def digest(self) -> Tuple[Any, ...]:
        return tuple(repr(record) for record in self._records)
