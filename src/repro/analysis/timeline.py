"""Per-process timelines: how a run unfolded, process by process.

The trace holds every lifecycle, protocol and decision event of a run (not
individual messages); this module folds it into a per-process sequence of
milestones (start, crashes/restarts, session or round entries, phase-2
proposals, decision) and renders the result as text.  It is the tool
to reach for when a run is slower than expected: the timeline makes it
obvious which process was waiting for what.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.trace import TraceRecorder

__all__ = ["Milestone", "ProcessTimeline", "extract_timelines", "render_timelines"]

_MILESTONE_EVENTS = {
    "start": "node",
    "restart": "node",
    "crash": "node",
    "session_enter": "protocol",
    "round_enter": "protocol",
    "start_phase1": "protocol",
    "phase2a": "protocol",
    "leader_established": "protocol",
    "decide": "sim",
}


@dataclass(frozen=True)
class Milestone:
    """One noteworthy event in a process's life."""

    time: float
    label: str

    def describe(self) -> str:
        return f"{self.time:9.3f}  {self.label}"


@dataclass
class ProcessTimeline:
    """All milestones of one process, in time order."""

    pid: int
    milestones: List[Milestone] = field(default_factory=list)

    def add(self, time: float, label: str) -> None:
        self.milestones.append(Milestone(time=time, label=label))

    def describe(self) -> str:
        lines = [f"p{self.pid}:"]
        lines.extend(f"  {milestone.describe()}" for milestone in self.milestones)
        return "\n".join(lines)


def _label_for(event: str, fields: dict) -> str:
    if event == "session_enter":
        return f"entered session {fields.get('session')} ({fields.get('via', '?')})"
    if event == "round_enter":
        return f"entered round {fields.get('round')} ({fields.get('via', '?')})"
    if event == "start_phase1":
        return f"started phase 1 for ballot {fields.get('ballot')}"
    if event == "phase2a":
        slot = fields.get("slot")
        suffix = f" slot {slot}" if slot is not None else ""
        return f"sent phase 2a for ballot {fields.get('ballot')}{suffix}"
    if event == "leader_established":
        return f"established leadership for ballot {fields.get('ballot')}"
    if event == "decide":
        return f"decided {fields.get('value')!r}"
    return event


def extract_timelines(trace: TraceRecorder, n: int) -> Dict[int, ProcessTimeline]:
    """Fold the trace into one :class:`ProcessTimeline` per process."""
    timelines = {pid: ProcessTimeline(pid=pid) for pid in range(n)}
    for record in trace.events:
        category = _MILESTONE_EVENTS.get(record.event)
        if category is None or record.category != category or record.pid is None:
            continue
        if record.pid not in timelines:
            continue
        timelines[record.pid].add(record.time, _label_for(record.event, record.fields))
    return timelines


def render_timelines(trace: TraceRecorder, n: int, ts: Optional[float] = None) -> str:
    """Render every process's timeline as text.

    Args:
        trace: The run's trace.
        n: Number of processes.
        ts: If given, a marker line is added showing the stabilization time.
    """
    timelines = extract_timelines(trace, n)
    lines: List[str] = []
    if ts is not None:
        lines.append(f"(stabilization time TS = {ts:g})")
    for pid in sorted(timelines):
        milestones = timelines[pid].milestones
        lines.append(f"p{pid}:")
        if not milestones:
            lines.append("   (no milestones)")
        for milestone in milestones:
            marker = ""
            if ts is not None and milestone.time >= ts:
                marker = f"  [TS{milestone.time - ts:+.2f}]"
            lines.append(f"   {milestone.describe()}{marker}")
    return "\n".join(lines)
