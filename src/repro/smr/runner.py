"""Run one SMR scenario end to end.

The single-decree harness (:mod:`repro.harness.runner`) stops when every
process has *decided*; the SMR layer instead stops when every expected
replica has learned every scheduled command (or the horizon is reached), and
its safety check is per-slot log consistency plus identical state-machine
digests rather than the single-decree spec.  When the run ends,
:func:`run_smr` condenses it once into its
:class:`~repro.smr.outcome.SmrOutcome` (per-command latencies, learned
prefixes, replica digest strings, traffic); the report, the CLI, records and
tables all read ``result.outcome``.

The stop check runs after every event, so it must not grow with the log: it
tests the scheduled command ids against each expected replica's
:attr:`~repro.smr.log.ReplicatedLog.command_ids`, a set the log keeps up to
date as it learns.  The check reads the replicas' *current* incarnations: a
replica that is down is not caught up, even if it had learned every command
before it crashed, so a run whose last learn happens while an expected
replica is down goes on until that replica restarts and recovers its log
(from stable storage and catch-up messages).  A global count of learns would
miss this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.analysis.invariants import InvariantReport, check_session_entry_rule
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator
from repro.smr.metrics import (
    check_log_consistency,
    command_latencies,
    learned_prefix_lengths,
    replica_digests,
)
from repro.smr.multi_paxos import MultiPaxosSmrBuilder
from repro.smr.outcome import SmrOutcome, digest_string
from repro.smr.state_machine import KeyValueStore
from repro.smr.workload import CommandSchedule
from repro.workloads.scenario import Scenario

__all__ = ["SmrRunResult", "run_smr"]


@dataclass
class SmrRunResult:
    """One finished SMR run: its scenario, schedule and simulator, its outcome, and its checks."""

    scenario: Scenario
    schedule: CommandSchedule
    simulator: Simulator
    outcome: SmrOutcome
    invariants: Dict[str, InvariantReport] = field(default_factory=dict)


def _validate_schedule_horizon(schedule: CommandSchedule, max_time: float) -> None:
    """Reject schedules whose submissions land past the scenario horizon.

    A submission timer set for after ``max_time`` never fires, so the command
    would silently never run (and never show up in the metrics); fail loudly
    with the offending command instead.
    """
    for pid, entries in sorted(schedule.entries.items()):
        for submit_at, command_id, _ in entries:
            if submit_at > max_time:
                raise ConfigurationError(
                    f"command {command_id!r} is scheduled at p{pid} local time "
                    f"{submit_at:g}, past the scenario horizon max_time={max_time:g}; "
                    "it would silently never be submitted — extend max_time or move "
                    "the submission earlier"
                )


def run_smr(
    scenario: Scenario,
    schedule: CommandSchedule,
    *,
    machine_factory: Callable[[], object] = KeyValueStore,
    enforce_consistency: bool = True,
) -> SmrRunResult:
    """Execute the multi-decree Modified Paxos service under ``scenario``."""
    config = scenario.config
    _validate_schedule_horizon(schedule, config.max_time)
    builder = MultiPaxosSmrBuilder(schedule=schedule)
    simulator = scenario.build_simulator(builder)

    expected_commands = frozenset(schedule.command_ids)
    watched = [simulator.nodes.get(pid) for pid in sorted(scenario.deciders())]

    def everyone_caught_up(sim: Simulator) -> bool:
        # One subset test per expected replica, whatever the log length.  A
        # crashed replica (``node.process is None``) keeps the run going until
        # it restarts and catches up.
        for node in watched:
            process = node.process
            if process is None or not expected_commands <= process.log.command_ids:
                return False
        return True

    # With nothing scheduled, or an expected replica the simulator does not
    # host, the run can only end at the horizon.
    can_catch_up = bool(expected_commands) and None not in watched
    simulator.run(stop_when=everyone_caught_up if can_catch_up else None)

    commands = command_latencies(simulator)
    prefix_lengths = learned_prefix_lengths(simulator)
    digests = replica_digests(simulator, machine_factory)
    invariants = {"session-entry-rule": check_session_entry_rule(simulator.trace, config.n)}
    consistency_checks = check_log_consistency(simulator)
    if enforce_consistency:
        invariants["session-entry-rule"].raise_if_violated()

    stats = simulator.network.monitor.stats
    outcome = SmrOutcome(
        workload=scenario.name,
        n=config.n,
        ts=config.ts,
        delta=config.params.delta,
        seed=config.seed,
        expected_replicas=tuple(sorted(scenario.deciders())),
        scheduled_command_ids=tuple(schedule.command_ids),
        commands=commands,
        prefix_lengths=prefix_lengths,
        digests={pid: digest_string(digest) for pid, digest in digests.items()},
        consistency_checks=consistency_checks,
        messages_sent=stats.sent,
        messages_delivered=stats.delivered,
        duration=simulator.now(),
        extra={
            "scenario": scenario.name,
            "events": simulator.events_processed,
            "environment": scenario.environment.to_dict(),
        },
    )
    return SmrRunResult(
        scenario=scenario,
        schedule=schedule,
        simulator=simulator,
        outcome=outcome,
        invariants=invariants,
    )
