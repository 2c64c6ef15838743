"""Run one (scenario, protocol) pair end to end.

The runner is the single integration point: it has the scenario build the
simulator (:meth:`~repro.workloads.scenario.Scenario.build_simulator`:
network, protocol builder, fault plan, post-setup hook), runs to completion,
computes metrics, and checks both the consensus safety spec and the
protocol's trace invariants.  Every
example, test, and benchmark goes through :func:`run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.analysis.invariants import InvariantReport
from repro.analysis.metrics import RunMetrics, compute_run_metrics
from repro.consensus.base import ProtocolBuilder
from repro.consensus.registry import protocol_builder
from repro.consensus.spec import SafetyReport, check_safety
from repro.consensus.values import DecisionOutcome, RunOutcome
from repro.sim.simulator import Simulator
from repro.workloads.scenario import Scenario

__all__ = ["RunResult", "run_scenario"]


@dataclass
class RunResult:
    """Everything produced by one run."""

    scenario: Scenario
    protocol: str
    simulator: Simulator
    metrics: RunMetrics
    safety: SafetyReport
    invariants: Dict[str, InvariantReport] = field(default_factory=dict)

    @property
    def decided_all(self) -> bool:
        return self.metrics.decisions.all_decided

    def max_lag_after_ts(self) -> Optional[float]:
        """Worst post-``TS`` decision lag over the scenario's expected deciders."""
        return self.metrics.decisions.max_lag_after_ts(self.scenario.deciders())

    def outcome(self) -> RunOutcome:
        """Condensed, simulator-free record of this run (for aggregation)."""
        config = self.simulator.config
        decisions = [
            DecisionOutcome(
                pid=pid,
                value=record.value,
                time=record.time,
                after_stability=record.time - config.ts,
            )
            for pid, record in sorted(self.simulator.decisions.items())
        ]
        stats = self.simulator.network.monitor.stats
        # The resolved environment travels with the outcome, so a result row
        # is reproducible from its own metadata alone.
        extra: Dict[str, object] = {
            "events": self.simulator.events_processed,
            "environment": self.scenario.environment.to_dict(),
        }
        return RunOutcome(
            protocol=self.protocol,
            n=config.n,
            ts=config.ts,
            delta=config.params.delta,
            seed=config.seed,
            decisions=decisions,
            proposals=dict(self.simulator.proposals),
            undecided_pids=list(self.metrics.decisions.undecided),
            messages_sent=stats.sent,
            messages_delivered=stats.delivered,
            duration=self.simulator.now(),
            extra=extra,
        )


def run_scenario(
    scenario: Scenario,
    protocol: Union[str, ProtocolBuilder],
    *,
    protocol_kwargs: Optional[dict] = None,
    enforce_safety: bool = True,
    enforce_invariants: bool = True,
    run_until_decided: bool = True,
) -> RunResult:
    """Execute ``protocol`` under ``scenario`` and return the analysed result.

    Args:
        scenario: The workload to run.
        protocol: A protocol name from
            :data:`~repro.consensus.registry.PROTOCOLS` or a pre-built
            :class:`ProtocolBuilder` instance.
        protocol_kwargs: Extra keyword arguments for the builder when the
            protocol is given by name.
        enforce_safety: Raise if the safety spec is violated (otherwise the
            report is only attached to the result).
        enforce_invariants: Raise if a protocol trace invariant is violated.
        run_until_decided: Stop as soon as every expected decider has decided
            (otherwise run to the scenario's horizon).
    """
    if isinstance(protocol, str):
        builder = protocol_builder(protocol, **(protocol_kwargs or {}))
        protocol_name = protocol
    else:
        builder = protocol
        protocol_name = type(builder).name

    simulator = scenario.build_simulator(builder)
    deciders = scenario.deciders()
    if run_until_decided:
        simulator.run_until_decided(deciders)
    else:
        simulator.run()

    metrics = compute_run_metrics(simulator, protocol_name, expected_deciders=deciders)
    safety = check_safety(simulator, expected_deciders=deciders)
    if enforce_safety:
        safety.raise_if_violated()

    invariants: Dict[str, InvariantReport] = {}
    for name, check in builder.invariant_checks().items():
        report = check(simulator.trace, scenario.config.n)
        invariants[name] = report
        if enforce_invariants:
            report.raise_if_violated()

    return RunResult(
        scenario=scenario,
        protocol=protocol_name,
        simulator=simulator,
        metrics=metrics,
        safety=safety,
        invariants=invariants,
    )
