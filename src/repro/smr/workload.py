"""Client command schedules for the SMR layer.

A :class:`ScheduleSpec` says which replica each command is submitted at,
when (in that replica's local clock), and what the command is.  It is plain,
picklable data in one of two forms (uniform generator parameters or
explicit entries), so an :class:`~repro.harness.executors.SmrTask` can carry
it across a process boundary and the results layer can fingerprint it into
a stable content key.  :meth:`ScheduleSpec.expand` turns it into per-replica
submission lists once the number of replicas is known; the
:class:`~repro.smr.multi_paxos.MultiPaxosSmrBuilder` does that when it is
attached to a simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["ScheduleSpec"]

Entry = Tuple[float, str, Any]
"""(submission local time, command id, command)."""


def _finite_non_negative(value: float) -> bool:
    return 0.0 <= value < math.inf  # also false for NaN


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative command schedule: plain data a task can carry anywhere.

    Two mutually exclusive modes:

    * *uniform* — ``num_commands`` evenly spaced ``set`` commands starting at
      ``start`` with ``interval`` spacing, round-robin over replicas unless
      ``target_pid`` pins every submission to one replica;
    * *explicit* — ``entries`` of ``(pid, submit_at, command_id, command)``
      tuples, for hand-built schedules.

    Times must be finite and non-negative, and command ids unique.  The spec
    is pure data (validated JSON-safe at fingerprint time), so the same spec
    yields the same submissions in any process — which is what gives SMR
    tasks a stable content key.
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
        if self.num_commands < 0 or not (
            _finite_non_negative(self.start) and _finite_non_negative(self.interval)
        ):
            raise ConfigurationError(
                "ScheduleSpec parameters must be finite and non-negative, got "
                f"num_commands={self.num_commands} start={self.start} interval={self.interval}"
            )
        seen = set()
        for _, submit_at, command_id, _ in self.entries:
            if not _finite_non_negative(submit_at):
                raise ConfigurationError(
                    f"schedule entry {command_id!r} is submitted at {submit_at}; "
                    "a submission time must be finite and non-negative"
                )
            if command_id in seen:
                raise ConfigurationError(f"schedule declares command id {command_id!r} twice")
            seen.add(command_id)

    def expand(self, n: int) -> Dict[int, List[Entry]]:
        """Each replica's submissions for ``n`` replicas, by submit time.

        Submissions at the same time keep their declaration order.  Uniform
        commands are ``cmd-0000``, ``cmd-0001``, ... setting ``key-<i % 10>``.
        """
        declared = self.entries or tuple(
            (
                self.target_pid if self.target_pid is not None else index % n,
                self.start + index * self.interval,
                f"cmd-{index:04d}",
                ("set", f"key-{index % 10}", f"value-{index}"),
            )
            for index in range(self.num_commands)
        )
        per_pid: Dict[int, List[Entry]] = {}
        for pid, submit_at, command_id, command in declared:
            if not 0 <= pid < n:
                raise ConfigurationError(
                    f"schedule entry {command_id!r} targets pid {pid}, "
                    f"out of range for n={n}"
                )
            per_pid.setdefault(pid, []).append((submit_at, command_id, command))
        for entries in per_pid.values():
            entries.sort(key=lambda entry: entry[0])
        return per_pid

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
