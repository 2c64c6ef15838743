"""Condensed, process-boundary-safe outcomes for SMR runs.

The single-decree harness ships :class:`~repro.consensus.values.RunOutcome`
between executor workers and the experiment layer; :class:`SmrOutcome` is the
multi-decree counterpart.  It freezes everything an SMR experiment aggregates
— per-command latencies, learned prefix lengths, replica state digests, the
resolved environment — as plain picklable data, so the same
:class:`~repro.harness.executors.SmrTask` produces an identical outcome
whether it ran serially in-process or inside a pool worker.

Replica digests are carried as canonical SHA-256 strings
(:func:`digest_string`) rather than the raw state-machine digests: strings
survive a JSON round trip exactly (raw digests are nested tuples, which JSON
would silently turn into lists), and two replicas agree exactly when their
digest strings are equal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.smr.metrics import (
    CommandRecord,
    digests_agree,
    worst_global_latency,
    worst_submitter_latency,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.smr.runner import SmrRunResult

__all__ = ["SMR_PROTOCOL", "SmrOutcome", "digest_string", "snapshot_smr_outcome"]

SMR_PROTOCOL = "multi-paxos-smr"


def digest_string(digest: Any) -> str:
    """Canonical, cross-process-stable string form of one replica digest.

    State machines return nested plain-data digests (tuples of sorted items
    for the KV store, tuples of reprs for the ledger); hashing their ``repr``
    gives a short stable identity — ``repr`` of plain data is deterministic
    across processes and platforms, unlike ``hash()``.
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
        """Whether every replica's state-machine digest is identical."""
        return digests_agree(self.digests)

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
    def all_commands_learned_everywhere(self) -> bool:
        return not self.unlearned_command_ids()

    @property
    def all_decided(self) -> bool:
        """Alias for the query layer (mirrors ``RunOutcome.all_decided``)."""
        return self.all_commands_learned_everywhere

    def worst_submitter_latency(self) -> Optional[float]:
        return worst_submitter_latency(self.commands)

    def worst_global_latency(self) -> Optional[float]:
        return worst_global_latency(self.commands)

    def worst_learned_after(self, ts: Optional[float] = None) -> Optional[float]:
        """Latest learn time relative to ``ts`` (default: the run's ``TS``)."""
        reference = self.ts if ts is None else ts
        times = [
            max(record.learned_times.values())
            for record in self.commands.values()
            if record.learned_times
        ]
        return max(times) - reference if times else None

    def describe(self) -> str:
        worst = self.worst_global_latency()
        worst_text = f"{worst:.3f}" if worst is not None else "n/a"
        return (
            f"{self.protocol} on {self.workload}: n={self.n} "
            f"commands={len(self.commands)}/{self.total_commands} "
            f"worst-global-latency={worst_text} agree={self.replicas_agree}"
        )


def snapshot_smr_outcome(result: "SmrRunResult", workload: Optional[str] = None) -> SmrOutcome:
    """Condense a full :class:`~repro.smr.runner.SmrRunResult` into an outcome.

    ``workload`` names the catalogue workload the scenario came from; it
    defaults to the scenario name for runs built outside the catalogue.
    """
    scenario = result.scenario
    config = scenario.config
    stats = result.simulator.network.monitor.stats
    extra: Dict[str, Any] = {
        "scenario": scenario.name,
        "events": result.simulator.events_processed,
        "environment": scenario.environment.to_dict(),
    }
    return SmrOutcome(
        workload=workload if workload is not None else scenario.name,
        n=config.n,
        ts=config.ts,
        delta=config.params.delta,
        seed=config.seed,
        expected_replicas=tuple(sorted(scenario.deciders())),
        scheduled_command_ids=tuple(result.schedule.command_ids),
        commands=dict(result.commands),
        prefix_lengths=dict(result.prefix_lengths),
        digests={pid: digest_string(digest) for pid, digest in result.digests.items()},
        consistency_checks=result.consistency_checks,
        messages_sent=stats.sent,
        messages_delivered=stats.delivered,
        duration=result.simulator.now(),
        extra=extra,
    )
