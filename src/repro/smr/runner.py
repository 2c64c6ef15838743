"""The SMR run kind's safety check and outcome.

:class:`~repro.smr.multi_paxos.MultiPaxosSmrBuilder` calls these from
:func:`~repro.harness.runner.run_scenario`: safety is per-slot log
consistency across replicas, and the outcome condenses the run once into its
:class:`~repro.smr.outcome.SmrOutcome`, which the report, the CLI, records
and tables all read.
"""

from __future__ import annotations

# Runs take this check from MultiPaxosSmrBuilder.invariant_checks; the name
# stays here because perfbench/tracing.py patches it on this module.
from repro.analysis.invariants import check_session_entry_rule  # noqa: F401
from repro.consensus.spec import SafetyReport
from repro.errors import AgreementViolation
from repro.sim.simulator import Simulator
from repro.smr.metrics import (
    check_log_consistency,
    command_latencies,
    learned_prefix_lengths,
    replica_digests,
)
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.outcome import SmrOutcome, digest_string
from repro.workloads.scenario import Scenario

__all__ = ["check_smr_safety", "compute_smr_outcome"]


def check_smr_safety(simulator: Simulator) -> SafetyReport:
    """No two replicas learned different values for one slot (``checked`` counts the comparisons)."""
    report = SafetyReport()
    try:
        report.checked = check_log_consistency(simulator)
    except AgreementViolation as violation:
        report.valid = False
        report.violations.append(f"agreement: {violation}")
    return report


def compute_smr_outcome(
    simulator: Simulator, scenario: Scenario, builder: MultiPaxosSmrBuilder, safety: SafetyReport
) -> SmrOutcome:
    """Condense a finished SMR run into its :class:`~repro.smr.outcome.SmrOutcome`."""
    config = scenario.config
    commands = command_latencies(simulator)
    prefix_lengths = learned_prefix_lengths(simulator)
    digests = replica_digests(simulator)
    stats = simulator.network.monitor.stats
    return SmrOutcome(
        workload=scenario.name,
        n=config.n,
        ts=config.ts,
        delta=config.params.delta,
        seed=config.seed,
        expected_replicas=tuple(sorted(scenario.deciders())),
        scheduled_command_ids=builder.command_ids,
        commands=commands,
        prefix_lengths=prefix_lengths,
        digests={pid: digest_string(digest) for pid, digest in digests.items()},
        consistency_checks=safety.checked,
        messages_sent=stats.sent,
        messages_delivered=stats.delivered,
        duration=simulator.now(),
        extra={
            "scenario": scenario.name,
            "events": simulator.events_processed,
            "environment": scenario.environment.to_dict(),
        },
    )
