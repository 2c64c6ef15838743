"""Lamport logical clocks.

Timestamps are ``(counter, pid)`` pairs ordered lexicographically, so any two
timestamps from different processes are comparable and the order is total —
exactly what the weak ordering oracle of Section 5 needs to deliver messages
"in timestamp order".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.errors import ProtocolError

__all__ = ["LamportClock", "LogicalTimestamp"]


@total_ordering
@dataclass(frozen=True)
class LogicalTimestamp:
    """A totally ordered logical timestamp."""

    counter: int
    pid: int

    def __lt__(self, other: "LogicalTimestamp") -> bool:
        if not isinstance(other, LogicalTimestamp):
            return NotImplemented
        return (self.counter, self.pid) < (other.counter, other.pid)

    def describe(self) -> str:
        return f"{self.counter}.{self.pid}"


class LamportClock:
    """Classic Lamport clock for one process."""

    def __init__(self, pid: int, start: int = 0) -> None:
        if start < 0:
            raise ProtocolError("logical clock cannot start negative")
        self.pid = pid
        self._counter = start

    def __repr__(self) -> str:
        return f"LamportClock(pid={self.pid}, counter={self._counter})"

    @property
    def counter(self) -> int:
        return self._counter

    def tick(self) -> LogicalTimestamp:
        """Advance for a local event (e.g. a send) and return the new timestamp."""
        self._counter += 1
        return LogicalTimestamp(self._counter, self.pid)

    def observe(self, timestamp: LogicalTimestamp) -> LogicalTimestamp:
        """Merge a received timestamp; subsequent sends will exceed it."""
        self._counter = max(self._counter, timestamp.counter)
        return self.tick()

    def snapshot(self) -> int:
        """Counter value for persisting to stable storage."""
        return self._counter

    @classmethod
    def restore(cls, pid: int, counter: int) -> "LamportClock":
        """Rebuild a clock from a persisted counter."""
        return cls(pid=pid, start=counter)
