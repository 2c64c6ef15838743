"""Client command schedules for the SMR layer.

A :class:`CommandSchedule` says which replica a command is submitted at, when
(in that replica's local clock), and what the command is.  Schedules are
plain data so they can be built by hand in tests or generated by
:func:`uniform_schedule` for benchmarks.

:class:`ScheduleSpec` is the *declarative* form: a picklable,
JSON-representable description (uniform generator parameters or explicit
entries) that an :class:`~repro.harness.executors.SmrTask` can carry across a
process boundary and that the results layer can fingerprint into a stable
content key.  ``spec.to_schedule(n)`` materializes the concrete
:class:`CommandSchedule` inside whichever process executes the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["CommandSchedule", "ScheduleSpec", "uniform_schedule"]

Entry = Tuple[float, str, Any]
"""(submission local time, command id, command)."""


@dataclass
class CommandSchedule:
    """Per-replica command submission schedule."""

    entries: Dict[int, List[Entry]] = field(default_factory=dict)

    def add(self, pid: int, submit_at: float, command_id: str, command: Any) -> "CommandSchedule":
        """Add one submission (fluent)."""
        if submit_at < 0:
            raise ConfigurationError("submission time must be non-negative")
        self.entries.setdefault(pid, []).append((submit_at, command_id, command))
        self.entries[pid].sort(key=lambda entry: entry[0])
        return self

    def for_pid(self, pid: int) -> List[Entry]:
        return list(self.entries.get(pid, []))

    @property
    def command_ids(self) -> List[str]:
        ids = []
        for entries in self.entries.values():
            ids.extend(command_id for _, command_id, _ in entries)
        return sorted(ids)

    @property
    def total_commands(self) -> int:
        return sum(len(entries) for entries in self.entries.values())

    def describe(self) -> str:
        return f"{self.total_commands} commands over {len(self.entries)} replicas"


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative command schedule: plain data a task can carry anywhere.

    Two mutually exclusive modes:

    * *uniform* — ``num_commands`` evenly spaced ``set`` commands starting at
      ``start`` with ``interval`` spacing, round-robin over replicas unless
      ``target_pid`` pins every submission to one replica (exactly the
      semantics of :func:`uniform_schedule`);
    * *explicit* — ``entries`` of ``(pid, submit_at, command_id, command)``
      tuples, for hand-built schedules.

    The spec is pure data (validated JSON-safe at fingerprint time), so the
    same spec yields the same :class:`CommandSchedule` in any process — which
    is what gives SMR tasks a stable content key.
    """

    num_commands: int = 0
    start: float = 10.0
    interval: float = 1.0
    target_pid: Optional[int] = None
    entries: Tuple[Tuple[int, float, str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.entries and self.num_commands:
            raise ConfigurationError(
                "ScheduleSpec takes either uniform parameters (num_commands) or "
                "explicit entries, not both"
            )
        if self.num_commands < 0 or self.interval < 0 or self.start < 0:
            raise ConfigurationError("ScheduleSpec parameters must be non-negative")

    @property
    def total_commands(self) -> int:
        return len(self.entries) if self.entries else self.num_commands

    def to_schedule(self, n: int) -> CommandSchedule:
        """Materialize the concrete per-replica schedule for ``n`` replicas."""
        if self.entries:
            schedule = CommandSchedule()
            for pid, submit_at, command_id, command in self.entries:
                if not 0 <= pid < n:
                    raise ConfigurationError(
                        f"schedule entry {command_id!r} targets pid {pid}, "
                        f"out of range for n={n}"
                    )
                schedule.add(pid, submit_at, command_id, command)
            return schedule
        return uniform_schedule(
            n,
            num_commands=self.num_commands,
            start=self.start,
            interval=self.interval,
            target_pid=self.target_pid,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form used by content-key fingerprints."""
        return {
            "num_commands": self.num_commands,
            "start": self.start,
            "interval": self.interval,
            "target_pid": self.target_pid,
            "entries": [
                [pid, submit_at, command_id, command]
                for pid, submit_at, command_id, command in self.entries
            ],
        }


def uniform_schedule(
    n: int,
    num_commands: int,
    start: float,
    interval: float,
    target_pid: int | None = None,
) -> CommandSchedule:
    """Evenly spaced ``set`` commands, round-robin over replicas.

    Args:
        n: Number of replicas.
        num_commands: How many commands to submit in total.
        start: Submission time of the first command (local clock of the
            submitting replica — with small drift this is ≈ real time).
        interval: Spacing between consecutive commands.
        target_pid: Submit every command at this replica instead of
            round-robin (used to measure the owner vs. non-owner fast path).
    """
    if n < 1 or num_commands < 0 or interval < 0:
        raise ConfigurationError("invalid uniform_schedule parameters")
    schedule = CommandSchedule()
    for index in range(num_commands):
        pid = target_pid if target_pid is not None else index % n
        if not 0 <= pid < n:
            raise ConfigurationError(f"target pid {pid} out of range")
        command_id = f"cmd-{index:04d}"
        command = ("set", f"key-{index % 10}", f"value-{index}")
        schedule.add(pid, start + index * interval, command_id, command)
    return schedule
