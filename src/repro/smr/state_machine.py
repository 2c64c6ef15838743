"""The deterministic state machine every replica applies its log to.

:class:`KeyValueStore` takes ``("set", key, value)`` and ``("delete",
key)`` tuples.  It is pure (no randomness, no time), so applying the same
log prefix on every replica yields identical digests
(``SmrOutcome.replicas_agree``).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.errors import ProtocolError

__all__ = ["MACHINE", "KeyValueStore"]

# The name an SMR task's fingerprint gives its state machine: every SMR run
# applies its log to a KeyValueStore.
MACHINE = "kv"


class KeyValueStore:
    """A dictionary driven by ``set``/``delete`` commands."""

    def __init__(self) -> None:
        self._data: Dict[Any, Any] = {}

    def apply(self, command: Any) -> Any:
        """Apply one command and return its result."""
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

    def digest(self) -> Tuple[Tuple[Any, Any], ...]:
        """A comparable summary of the current state (for replica checks)."""
        return tuple(sorted(self._data.items(), key=lambda item: repr(item[0])))
