"""Schema-versioned SMR records: the multi-decree kind of record.

An :class:`SmrRecord` wraps the condensed
:class:`~repro.smr.outcome.SmrOutcome` — per-command latencies, learned
prefix lengths, replica digests (already canonical strings) and the
resolved environment — in the envelope of
:class:`~repro.results.record.RecordBase`, under the same content-key shape
as single-decree records, so one store holds both kinds side by side.  The
serialized form carries ``"kind": "smr"``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.results.record import RecordBase, by_pid, extra, rows, sequence
from repro.smr.metrics import CommandRecord
from repro.smr.outcome import SmrOutcome

__all__ = ["SmrRecord"]


class SmrRecord(RecordBase):
    """One SMR run: the envelope around an :class:`~repro.smr.outcome.SmrOutcome`."""

    kind = "smr"
    outcome_type = SmrOutcome
    codecs = {
        "expected_replicas": sequence(tuple),
        "scheduled_command_ids": sequence(tuple),
        "commands": rows(
            CommandRecord,
            {"learned_times": by_pid()},
            label=lambda row: row.command_id,
            keyed_by="command_id",
        ),
        "prefix_lengths": by_pid(),
        "digests": by_pid(),
        "extra": extra(),
    }
    # The SMR "lag": worst global command latency in delta units.
    lag_metric = "worst_global_latency_delta"

    @staticmethod
    def digest(outcome: SmrOutcome) -> Dict[str, Any]:
        worst_submitter = outcome.worst_submitter_latency()
        worst_global = outcome.worst_global_latency()
        delta = outcome.delta
        return {
            "worst_submitter_latency": worst_submitter,
            "worst_global_latency": worst_global,
            "worst_submitter_latency_delta": (
                worst_submitter / delta if worst_submitter is not None else None
            ),
            "worst_global_latency_delta": (
                worst_global / delta if worst_global is not None else None
            ),
            "commands_total": outcome.total_commands,
            "commands_observed": len(outcome.commands),
            # "decided" mirrors the single-decree metrics digest so flat
            # exports have one column for both kinds: decided commands here,
            # decided processes there.
            "decided": len(outcome.commands),
            "all_learned": outcome.all_decided,
            "all_decided": outcome.all_decided,
            "replicas_agree": outcome.replicas_agree,
        }

    def describe(self) -> str:
        worst = self.lag_delta
        worst_text = f"{worst:.3f}d" if worst is not None else "n/a"
        learned = self.metrics.get("commands_observed", len(self.outcome.commands))
        total = self.metrics.get("commands_total", len(self.outcome.scheduled_command_ids))
        return (
            f"{self.key}  commands={learned}/{total} "
            f"worst-global={worst_text} agree={self.metrics.get('replicas_agree')}"
        )
