"""Run one (scenario, protocol) pair end to end.

The runner is the single integration point: it has the scenario build the
simulator (:meth:`~repro.workloads.scenario.Scenario.build_simulator`:
network, protocol builder, fault plan, post-setup hook), runs to completion,
checks the consensus safety spec, condenses the run into its one
:class:`~repro.consensus.values.RunOutcome`
(:func:`~repro.analysis.metrics.compute_run_metrics`), and checks the
protocol's trace invariants.  Every example, test, and benchmark goes
through :func:`run_scenario`; everything after the run reads
``result.outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.analysis.invariants import InvariantReport
from repro.analysis.metrics import compute_run_metrics
from repro.consensus.base import ProtocolBuilder
from repro.consensus.registry import protocol_builder
from repro.consensus.spec import SafetyReport, check_safety
from repro.consensus.values import RunOutcome
from repro.sim.simulator import Simulator
from repro.workloads.scenario import Scenario

__all__ = ["RunResult", "run_scenario"]


@dataclass
class RunResult:
    """One finished run: its scenario and simulator, its outcome, and its check reports."""

    scenario: Scenario
    protocol: str
    simulator: Simulator
    outcome: RunOutcome
    safety: SafetyReport
    invariants: Dict[str, InvariantReport] = field(default_factory=dict)

    @property
    def decided_all(self) -> bool:
        return self.outcome.all_decided

    def max_lag_after_ts(self) -> Optional[float]:
        """Worst post-``TS`` decision lag over the scenario's expected deciders."""
        return self.outcome.extra["max_lag_after_ts"]


def run_scenario(
    scenario: Scenario,
    protocol: Union[str, ProtocolBuilder],
    *,
    enforce: bool = True,
) -> RunResult:
    """Execute ``protocol`` under ``scenario`` and return the analysed result.

    The run stops at the event in which the last of the scenario's expected
    deciders decides (or at the scenario's horizon if one never does).

    Args:
        scenario: The workload to run.
        protocol: A protocol name from
            :data:`~repro.consensus.registry.PROTOCOLS` or a pre-built
            :class:`ProtocolBuilder` instance.
        enforce: Raise if the safety spec or a protocol trace invariant is
            violated (otherwise the reports are only attached to the result).
    """
    if isinstance(protocol, str):
        builder = protocol_builder(protocol)
        protocol_name = protocol
    else:
        builder = protocol
        protocol_name = type(builder).name

    simulator = scenario.build_simulator(builder)
    deciders = scenario.deciders()
    simulator.run_until_decided(deciders)

    safety = check_safety(simulator, expected_deciders=deciders)
    if enforce:
        safety.raise_if_violated()
    outcome = compute_run_metrics(simulator, scenario, protocol_name, safety.valid)

    invariants: Dict[str, InvariantReport] = {}
    for name, check in builder.invariant_checks().items():
        report = check(simulator.trace, scenario.config.n)
        invariants[name] = report
        if enforce:
            report.raise_if_violated()

    return RunResult(
        scenario=scenario,
        protocol=protocol_name,
        simulator=simulator,
        outcome=outcome,
        safety=safety,
        invariants=invariants,
    )
