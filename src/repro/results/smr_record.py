"""Schema-versioned SMR records: the canonical serialized form of an SMR run.

The multi-decree counterpart of :class:`~repro.results.record.RunRecord`: an
:class:`SmrRecord` freezes everything one executed SMR run produced — the
condensed :class:`~repro.smr.outcome.SmrOutcome` with its per-command
latencies, learned prefix lengths, replica state digests, and resolved
environment — as plain, JSON-representable data under the shared results
schema version.  Records round-trip exactly
(``SmrRecord.from_dict(record.to_dict()) == record``) and live under the
same content-key shape as single-decree records::

    multi-paxos-smr/<workload>/<env-hash>/n<n>-ts<ts>-d<delta>-s<seed>

so every :class:`~repro.results.store.ResultStore` backend holds both kinds
side by side (the serialized form carries ``"kind": "smr"``;
:func:`~repro.results.record.decode_record_dict` dispatches on it).

Replica digests are stored as the canonical strings
:func:`~repro.smr.outcome.digest_string` produced at snapshot time, so a
record equals its JSON round trip exactly and
:meth:`SmrRecord.to_outcome` rebuilds the executor's outcome verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.consensus.values import json_safe
from repro.errors import ResultSchemaError
from repro.results.record import SCHEMA_VERSION, RecordBase

__all__ = ["SmrRecord"]

RECORD_KIND = "smr"


def _encode_command(record: Any) -> Dict[str, Any]:
    return {
        "command_id": record.command_id,
        "origin": record.origin,
        "submit_time": record.submit_time,
        "learned_times": {str(pid): time for pid, time in record.learned_times.items()},
        "slot": record.slot,
    }


def _decode_command(data: Mapping[str, Any]) -> Any:
    from repro.smr.metrics import CommandRecord

    return CommandRecord(
        command_id=data["command_id"],
        origin=data["origin"],
        submit_time=data["submit_time"],
        learned_times={int(pid): time for pid, time in data.get("learned_times", {}).items()},
        slot=data.get("slot"),
    )


@dataclass(frozen=True)
class SmrRecord(RecordBase):
    """One SMR run, frozen as schema-versioned plain data.

    ``commands`` keep their :class:`~repro.smr.metrics.CommandRecord` form in
    memory (serialized by :meth:`to_dict` with integer-keyed mappings
    restored by codecs) so equality and latency analysis work on the natural
    types.
    """

    key: str
    workload: str
    n: int
    ts: float
    delta: float
    seed: int
    protocol: str = "multi-paxos-smr"
    expected_replicas: Tuple[int, ...] = ()
    scheduled_command_ids: Tuple[str, ...] = ()
    commands: Tuple[Any, ...] = ()
    prefix_lengths: Mapping[int, int] = field(default_factory=dict)
    digests: Mapping[int, str] = field(default_factory=dict)
    consistency_checks: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    duration: float = 0.0
    tags: Mapping[str, Any] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    kind = RECORD_KIND

    # -- construction -------------------------------------------------------
    @classmethod
    def from_outcome(
        cls,
        outcome: Any,
        *,
        workload: str,
        key: str,
        tags: Optional[Mapping[str, Any]] = None,
    ) -> "SmrRecord":
        """Freeze one executed SMR outcome under the given identity.

        ``extra`` values must be JSON-safe (they already are for outcomes the
        snapshotter builds: scenario name, event count, resolved environment);
        anything else fails loudly at record time, never at query time.
        """
        offending = []
        for extra_key, value in outcome.extra.items():
            try:
                json_safe(value, f"extra[{extra_key!r}]")
            except ResultSchemaError:
                offending.append(extra_key)
        if offending:
            raise ResultSchemaError(
                f"SmrOutcome of {workload!r} carries non-JSON-safe values under "
                f"extra keys: {', '.join(sorted(offending))}"
            )
        worst_submitter = outcome.worst_submitter_latency()
        worst_global = outcome.worst_global_latency()
        delta = outcome.delta
        metrics = {
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
            "all_learned": outcome.all_commands_learned_everywhere,
            "all_decided": outcome.all_commands_learned_everywhere,
            "replicas_agree": outcome.replicas_agree,
        }
        return cls(
            key=key,
            workload=workload,
            n=outcome.n,
            ts=outcome.ts,
            delta=outcome.delta,
            seed=outcome.seed,
            protocol=outcome.protocol,
            expected_replicas=tuple(outcome.expected_replicas),
            scheduled_command_ids=tuple(outcome.scheduled_command_ids),
            commands=tuple(
                _decode_command(_encode_command(record))
                for record in outcome.commands.values()
            ),
            prefix_lengths=dict(outcome.prefix_lengths),
            digests=dict(outcome.digests),
            consistency_checks=outcome.consistency_checks,
            messages_sent=outcome.messages_sent,
            messages_delivered=outcome.messages_delivered,
            duration=outcome.duration,
            tags=json_safe(dict(tags or {}), "tags"),
            extra=json_safe(dict(outcome.extra), "extra"),
            metrics=metrics,
        )

    # -- derived views ------------------------------------------------------
    @property
    def lag_delta(self) -> Optional[float]:
        """Worst global command latency in delta units (the SMR "lag")."""
        return self.metrics.get("worst_global_latency_delta")

    # -- reconstruction -----------------------------------------------------
    def to_outcome(self) -> Any:
        """Rebuild the exact outcome the executor produced for this run."""
        from repro.smr.outcome import SmrOutcome

        return SmrOutcome(
            workload=self.workload,
            n=self.n,
            ts=self.ts,
            delta=self.delta,
            seed=self.seed,
            expected_replicas=tuple(self.expected_replicas),
            scheduled_command_ids=tuple(self.scheduled_command_ids),
            commands={
                record.command_id: _decode_command(_encode_command(record))
                for record in self.commands
            },
            prefix_lengths=dict(self.prefix_lengths),
            digests=dict(self.digests),
            consistency_checks=self.consistency_checks,
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            duration=self.duration,
            extra=dict(self.extra),
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": RECORD_KIND,
            "schema_version": self.schema_version,
            "key": self.key,
            "protocol": self.protocol,
            "workload": self.workload,
            "n": self.n,
            "ts": self.ts,
            "delta": self.delta,
            "seed": self.seed,
            "expected_replicas": list(self.expected_replicas),
            "scheduled_command_ids": list(self.scheduled_command_ids),
            "commands": [_encode_command(record) for record in self.commands],
            "prefix_lengths": {str(pid): length for pid, length in self.prefix_lengths.items()},
            "digests": {str(pid): digest for pid, digest in self.digests.items()},
            "consistency_checks": self.consistency_checks,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "duration": self.duration,
            "tags": dict(self.tags),
            "extra": dict(self.extra),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SmrRecord":
        version = cls._check_envelope(data)
        try:
            return cls(
                key=data["key"],
                workload=data["workload"],
                n=data["n"],
                ts=data["ts"],
                delta=data["delta"],
                seed=data["seed"],
                protocol=data.get("protocol", "multi-paxos-smr"),
                expected_replicas=tuple(data.get("expected_replicas", ())),
                scheduled_command_ids=tuple(data.get("scheduled_command_ids", ())),
                commands=tuple(_decode_command(c) for c in data.get("commands", ())),
                prefix_lengths={
                    int(pid): length
                    for pid, length in data.get("prefix_lengths", {}).items()
                },
                digests={int(pid): digest for pid, digest in data.get("digests", {}).items()},
                consistency_checks=data.get("consistency_checks", 0),
                messages_sent=data.get("messages_sent", 0),
                messages_delivered=data.get("messages_delivered", 0),
                duration=data.get("duration", 0.0),
                tags=dict(data.get("tags", {})),
                extra=dict(data.get("extra", {})),
                metrics=dict(data.get("metrics", {})),
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ResultSchemaError(f"malformed SMR record dict: {error!r}") from error

    # -- reporting ----------------------------------------------------------
    def describe(self) -> str:
        worst = self.lag_delta
        worst_text = f"{worst:.3f}d" if worst is not None else "n/a"
        learned = self.metrics.get("commands_observed", len(self.commands))
        total = self.metrics.get("commands_total", len(self.scheduled_command_ids))
        return (
            f"{self.key}  commands={learned}/{total} "
            f"worst-global={worst_text} agree={self.metrics.get('replicas_agree')}"
        )
