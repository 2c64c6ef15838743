"""The consensus safety specification.

Uniform consensus, as studied by the paper:

* **Validity** — every decided value was proposed by some process.
* **Agreement** — no two processes decide different values (uniform: this
  includes processes that later crash).
* **Integrity** — a process decides at most one value (deciding the same
  value repeatedly, e.g. after a restart, is allowed).

Termination is a *liveness* property and is what the experiments measure; it
is reported (which pids decided, when) rather than asserted here.

The checker works on a finished :class:`repro.sim.simulator.Simulator` so it
sees every decision ever made, including by processes that crashed later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import (
    AgreementViolation,
    IntegrityViolation,
    SafetyViolation,
    ValidityViolation,
)
from repro.sim.simulator import DecisionRecord, Simulator

__all__ = ["SafetyReport", "check_safety"]


@dataclass
class SafetyReport:
    """Result of checking one run against its safety spec (an SMR run's log check fills ``checked``)."""

    valid: bool = True
    violations: List[str] = field(default_factory=list)
    decided_pids: List[int] = field(default_factory=list)
    undecided_pids: List[int] = field(default_factory=list)
    decided_value: Optional[Any] = None
    checked: int = 0

    def raise_if_violated(self) -> None:
        """Raise the first violation as an exception (tests use this)."""
        if self.valid:
            return
        message = "; ".join(self.violations)
        if any("agreement" in violation for violation in self.violations):
            raise AgreementViolation(message)
        if any("validity" in violation for violation in self.violations):
            raise ValidityViolation(message)
        if any("integrity" in violation for violation in self.violations):
            raise IntegrityViolation(message)
        raise SafetyViolation(message)


def check_safety(
    simulator: Simulator,
    proposals: Optional[Dict[int, Any]] = None,
    expected_deciders: Optional[Sequence[int]] = None,
) -> SafetyReport:
    """Check validity, agreement, and integrity for a finished run.

    Args:
        simulator: The simulator after :meth:`run` has returned.
        proposals: Proposal per pid; defaults to the simulator's own record.
        expected_deciders: Pids that were expected to decide (for the report's
            undecided list only — absence is not a safety violation).
    """
    report = SafetyReport()
    proposals = proposals if proposals is not None else simulator.proposals
    proposed_values = list(proposals.values())

    all_decisions: List[DecisionRecord] = simulator.all_decisions
    report.decided_pids = sorted({record.pid for record in all_decisions})
    expected = list(expected_deciders) if expected_deciders is not None else list(simulator.nodes)
    report.undecided_pids = sorted(set(expected) - set(report.decided_pids))

    # Validity: every decided value must have been proposed by someone.
    for record in all_decisions:
        if record.value not in proposed_values:
            report.valid = False
            report.violations.append(
                f"validity: p{record.pid} decided {record.value!r} which no process proposed"
            )

    # Agreement: all decided values are equal (uniform agreement).
    distinct_values = []
    for record in all_decisions:
        if record.value not in distinct_values:
            distinct_values.append(record.value)
    if len(distinct_values) > 1:
        report.valid = False
        report.violations.append(
            f"agreement: multiple values decided: {distinct_values!r}"
        )
    elif distinct_values:
        report.decided_value = distinct_values[0]

    # Integrity: one process never decides two different values.
    first_value_by_pid: Dict[int, Any] = {}
    for record in all_decisions:
        previous = first_value_by_pid.setdefault(record.pid, record.value)
        if previous != record.value:
            report.valid = False
            report.violations.append(
                f"integrity: p{record.pid} decided both {previous!r} and {record.value!r}"
            )

    return report
