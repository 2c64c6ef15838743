"""Trace-level protocol invariants.

These checks run over the structured trace of a finished simulation and
verify the *mechanism* the paper's proof relies on, not just the end-to-end
safety properties:

* the session-entry rule of Modified Paxos — no process performs Start
  Phase 1 into session ``s ≥ 2`` before a majority of processes has entered
  session ``s − 1`` (proof step 1 depends on exactly this);
* the analogous round-entry rule of the rotating-coordinator baseline;
* proposer consistency — a given ballot never carries two different values
  in phase 2a.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.trace import TraceRecorder
from repro.consensus.quorum import majority
from repro.errors import InvariantViolation

__all__ = [
    "InvariantReport",
    "check_session_entry_rule",
    "check_rotating_round_entry",
    "check_unique_phase2a_value",
]


@dataclass
class InvariantReport:
    """Outcome of one invariant check."""

    name: str
    checked: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            raise InvariantViolation(f"{self.name}: " + "; ".join(self.violations))


def check_session_entry_rule(trace: TraceRecorder, n: int) -> InvariantReport:
    """Modified Paxos: Start Phase 1 into session ``s ≥ 2`` needs a majority in ``s − 1``.

    The check replays the trace in time order, maintaining for every process
    the highest session it has entered so far, and verifies each
    ``start_phase1`` event against the state strictly before it.
    """
    report = InvariantReport(name="session-entry-rule", checked=0)
    quorum = majority(n)
    highest_session: Dict[int, int] = defaultdict(lambda: -1)

    for record in trace.filter(event=("session_enter", "start_phase1"), category="protocol"):
        if record.event == "start_phase1":
            session = record.fields.get("session")
            if session is None or session < 2:
                continue
            report.checked += 1
            entered_previous = sum(
                1 for s in highest_session.values() if s >= session - 1
            )
            if entered_previous < quorum:
                report.violations.append(
                    f"p{record.pid} started session {session} at t={record.time:.3f} "
                    f"with only {entered_previous} processes in session >= {session - 1} "
                    f"(needs {quorum})"
                )
        elif record.event == "session_enter":
            session = record.fields.get("session", 0)
            if record.pid is not None:
                highest_session[record.pid] = max(highest_session[record.pid], session)
    return report


def check_rotating_round_entry(trace: TraceRecorder, n: int) -> InvariantReport:
    """Rotating coordinator: timeout-driven entry to round ``r`` needs a majority in ``r − 1``."""
    report = InvariantReport(name="round-entry-rule", checked=0)
    quorum = majority(n)
    highest_round: Dict[int, int] = defaultdict(lambda: -1)

    for record in trace.filter(event="round_enter", category="protocol"):
        round_number = record.fields.get("round", 0)
        via = record.fields.get("via")
        if via == "timeout" and round_number >= 1:
            report.checked += 1
            entered_previous = sum(1 for r in highest_round.values() if r >= round_number - 1)
            if entered_previous < quorum:
                report.violations.append(
                    f"p{record.pid} timed out into round {round_number} at t={record.time:.3f} "
                    f"with only {entered_previous} processes in round >= {round_number - 1} "
                    f"(needs {quorum})"
                )
        if record.pid is not None:
            highest_round[record.pid] = max(highest_round[record.pid], round_number)
    return report


def check_unique_phase2a_value(trace: TraceRecorder, n: int) -> InvariantReport:
    """Paxos family: a ballot's phase 2a messages all carry the same value."""
    report = InvariantReport(name="unique-phase2a-value", checked=0)
    values_by_ballot: Dict[int, Set[str]] = defaultdict(set)
    for record in trace.filter(event="phase2a", category="protocol"):
        ballot = record.fields.get("ballot")
        if ballot is None:
            continue
        values_by_ballot[ballot].add(repr(record.fields.get("value")))
    for ballot, values in sorted(values_by_ballot.items()):
        report.checked += 1
        if len(values) > 1:
            report.violations.append(
                f"ballot {ballot} carried {len(values)} different phase-2a values: "
                f"{sorted(values)}"
            )
    return report


def check_single_session_leadership(trace: TraceRecorder, n: int) -> InvariantReport:
    """Modified Paxos: within one session, each ballot has a single owner proposing.

    Every ``phase2a`` event of a given session must come from the process
    that owns the ballot (``ballot mod n``).  This is structural in the
    implementation but checking it from traces guards against regressions.
    """
    report = InvariantReport(name="single-session-leadership", checked=0)
    for record in trace.filter(event="phase2a", category="protocol"):
        ballot = record.fields.get("ballot")
        if ballot is None or record.pid is None:
            continue
        report.checked += 1
        if ballot % n != record.pid:
            report.violations.append(
                f"p{record.pid} sent phase 2a for ballot {ballot} owned by p{ballot % n}"
            )
    return report
