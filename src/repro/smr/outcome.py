"""Condensed, process-boundary-safe outcomes for SMR runs.

The single-decree harness ships :class:`~repro.consensus.values.RunOutcome`
between executor workers and the experiment layer; :class:`SmrOutcome` is the
multi-decree counterpart.  It freezes everything an SMR experiment aggregates
— per-command latencies, learned prefix lengths, replica state digests, the
resolved environment — as plain picklable data, so the same
:class:`~repro.harness.executors.SmrTask` produces an identical outcome
whether it ran serially in-process or inside a pool worker.
:func:`~repro.smr.runner.compute_smr_outcome` builds it once, when the run
finishes; reports, the CLI, records and tables all read that one outcome.

Replica digests are carried as canonical SHA-256 strings
(:func:`digest_string`) rather than the raw state-machine digests: strings
survive a JSON round trip exactly (raw digests are nested tuples, which JSON
would silently turn into lists), and two replicas agree exactly when their
digest strings are equal — the one definition of "replicas agree".
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.smr.metrics import CommandRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.runner import RunResult

__all__ = ["SMR_PROTOCOL", "SmrOutcome", "digest_string", "snapshot_smr_outcome"]

SMR_PROTOCOL = "multi-paxos-smr"


def digest_string(digest: Any) -> str:
    """Canonical, cross-process-stable string form of one replica digest.

    The key-value store's digest is plain data (a tuple of sorted items);
    hashing its ``repr`` gives a short stable identity — ``repr`` of plain
    data is deterministic across processes and platforms, unlike ``hash()``.
    """
    return hashlib.sha256(repr(digest).encode("utf-8")).hexdigest()[:16]


@dataclass
class SmrOutcome:
    """Everything a finished SMR run exposes to aggregation and storage."""

    workload: str
    n: int
    ts: float
    delta: float
    seed: int
    expected_replicas: Tuple[int, ...] = ()
    scheduled_command_ids: Tuple[str, ...] = ()
    commands: Dict[str, CommandRecord] = field(default_factory=dict)
    prefix_lengths: Dict[int, int] = field(default_factory=dict)
    digests: Dict[int, str] = field(default_factory=dict)
    consistency_checks: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    duration: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    protocol = SMR_PROTOCOL

    @property
    def total_commands(self) -> int:
        return len(self.scheduled_command_ids)

    @property
    def replicas_agree(self) -> bool:
        """Whether every replica's state-machine digest string is identical."""
        return len(set(self.digests.values())) <= 1

    def unlearned_command_ids(self) -> List[str]:
        """Scheduled commands some expected replica never learned, sorted."""
        expected = set(self.expected_replicas)
        missing = []
        for command_id in self.scheduled_command_ids:
            record = self.commands.get(command_id)
            if record is None or not expected.issubset(record.learned_times.keys()):
                missing.append(command_id)
        return sorted(missing)

    @property
    def all_decided(self) -> bool:
        """Whether every scheduled command was learned by every expected replica."""
        return not self.unlearned_command_ids()

    def max_lag_after_ts(self) -> Optional[float]:
        """Latest learn of a scheduled command at an expected replica, after ``TS``.

        The single-decree decision lag applied to commands: clamped at 0, and
        None while some expected replica has not learned some scheduled
        command (or when no command was scheduled).
        """
        if self.unlearned_command_ids():
            return None
        times = [
            self.commands[command_id].learned_times[pid]
            for command_id in self.scheduled_command_ids
            for pid in self.expected_replicas
        ]
        return max(0.0, max(times) - self.ts) if times else None

    def worst_submitter_latency(self) -> Optional[float]:
        """Worst submitter latency over the commands (None if none completed)."""
        return _worst(record.submitter_latency for record in self.commands.values())

    def worst_global_latency(self) -> Optional[float]:
        """Worst global latency over the commands (None if none completed)."""
        return _worst(record.global_latency for record in self.commands.values())

    def worst_learned_after(self, ts: Optional[float] = None) -> Optional[float]:
        """Latest learn time relative to ``ts`` (default: the run's ``TS``)."""
        reference = self.ts if ts is None else ts
        times = [
            max(record.learned_times.values())
            for record in self.commands.values()
            if record.learned_times
        ]
        return max(times) - reference if times else None


def _worst(latencies) -> Optional[float]:
    completed = [latency for latency in latencies if latency is not None]
    return max(completed) if completed else None


def snapshot_smr_outcome(result: "RunResult", workload: Optional[str] = None) -> SmrOutcome:
    """The outcome of a finished SMR run, stamped with its catalogue workload.

    :func:`~repro.smr.runner.compute_smr_outcome` names the outcome's
    workload after the scenario; ``workload`` (when given) replaces it with
    the catalogue name the task resolved.
    """
    if workload is None:
        return result.outcome
    return dataclasses.replace(result.outcome, workload=workload)
