"""Per-command latency and replica-consistency metrics for the SMR layer.

Latency is measured from the trace: a ``command_submit`` event at the
submitting replica starts the clock, and each replica's ``slot_decide`` event
carrying that command id stops it for that replica.  Two latencies matter:

* *submitter latency* — until the submitting replica has learned the command
  (what a co-located client would observe);
* *global latency* — until every live replica has learned it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import AgreementViolation
from repro.sim.simulator import Simulator
from repro.smr.multi_paxos import MultiPaxosSmrProcess
from repro.smr.state_machine import KeyValueStore

__all__ = [
    "CommandRecord",
    "command_latencies",
    "learned_prefix_lengths",
    "check_log_consistency",
    "replica_digests",
]


@dataclass
class CommandRecord:
    """Timing of one command through the system."""

    command_id: str
    origin: int
    submit_time: float
    learned_times: Dict[int, float] = field(default_factory=dict)
    slot: Optional[int] = None

    @property
    def submitter_latency(self) -> Optional[float]:
        learned = self.learned_times.get(self.origin)
        if learned is None:
            return None
        return learned - self.submit_time

    @property
    def global_latency(self) -> Optional[float]:
        if not self.learned_times:
            return None
        return max(self.learned_times.values()) - self.submit_time


def command_latencies(simulator: Simulator) -> Dict[str, CommandRecord]:
    """Build a :class:`CommandRecord` per submitted command from the trace."""
    records: Dict[str, CommandRecord] = {}
    for event in simulator.trace.filter(event="command_submit", category="protocol"):
        command_id = event.fields.get("command_id")
        if command_id is None or event.pid is None:
            continue
        records.setdefault(
            command_id,
            CommandRecord(command_id=command_id, origin=event.pid, submit_time=event.time),
        )
    for event in simulator.trace.filter(event="slot_decide", category="protocol"):
        command_id = event.fields.get("command_id")
        if command_id is None or command_id not in records or event.pid is None:
            continue
        record = records[command_id]
        record.learned_times.setdefault(event.pid, event.time)
        if record.slot is None:
            record.slot = event.fields.get("slot")
    return records


def learned_prefix_lengths(simulator: Simulator) -> Dict[int, int]:
    """Length of each replica's contiguous decided prefix at the end of the run."""
    lengths: Dict[int, int] = {}
    for pid, node in simulator.nodes.items():
        process = node.process
        if isinstance(process, MultiPaxosSmrProcess):
            lengths[pid] = process.log.prefix
    return lengths


def replica_digests(simulator: Simulator) -> Dict[int, object]:
    """Apply each replica's contiguous prefix to a fresh key-value store and digest it."""
    digests: Dict[int, object] = {}
    for pid, node in simulator.nodes.items():
        process = node.process
        if not isinstance(process, MultiPaxosSmrProcess):
            continue
        machine = KeyValueStore()
        for value in process.log.contiguous_prefix():
            command = value[1] if isinstance(value, tuple) and len(value) == 2 else value
            if command == ("noop",):
                continue
            machine.apply(command)
        digests[pid] = machine.digest()
    return digests


def check_log_consistency(simulator: Simulator) -> int:
    """Verify that no two replicas learned different values for the same slot.

    Returns the number of (slot, replica-pair) checks performed and raises
    :class:`AgreementViolation` on the first conflict.
    """
    logs: Dict[int, Dict[int, object]] = {}
    for pid, node in simulator.nodes.items():
        process = node.process
        if isinstance(process, MultiPaxosSmrProcess):
            logs[pid] = process.log.snapshot()
    checks = 0
    reference: Dict[int, tuple] = {}
    for pid, log in sorted(logs.items()):
        for slot, value in log.items():
            checks += 1
            if slot in reference and reference[slot][1] != value:
                other_pid = reference[slot][0]
                raise AgreementViolation(
                    f"slot {slot}: p{other_pid} learned {reference[slot][1]!r} "
                    f"but p{pid} learned {value!r}"
                )
            reference.setdefault(slot, (pid, value))
    return checks
