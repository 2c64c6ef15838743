"""Run one (scenario, protocol) pair end to end, for either run kind.

The runner is the single integration point: it has the scenario build the
simulator (:meth:`~repro.workloads.scenario.Scenario.build_simulator`:
network, protocol builder, fault plan, post-setup hook), and the protocol
builder (:class:`~repro.consensus.base.ProtocolBuilder`) runs it to its stop
event, checks safety, condenses it into its one outcome (a
:class:`~repro.consensus.values.RunOutcome`, or an SMR run's
:class:`~repro.smr.outcome.SmrOutcome`) and names the trace invariants to
check.  Every example, test, and benchmark goes through
:func:`run_scenario`; everything after the run reads ``result.outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.analysis.invariants import InvariantReport
from repro.consensus.base import ProtocolBuilder
from repro.consensus.registry import protocol_builder
# ProtocolBuilder's single-decree hooks call compute_run_metrics and check_safety here.
from repro.analysis.metrics import compute_run_metrics  # noqa: F401
from repro.consensus.spec import SafetyReport, check_safety  # noqa: F401
from repro.consensus.values import RunOutcome
from repro.sim.simulator import Simulator
from repro.workloads.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.smr.outcome import SmrOutcome

__all__ = ["RunResult", "run_scenario"]


@dataclass
class RunResult:
    """One finished run: its scenario, builder and simulator, its outcome, and its check reports."""

    scenario: Scenario
    protocol: str
    builder: ProtocolBuilder
    simulator: Simulator
    outcome: Union[RunOutcome, "SmrOutcome"]
    safety: SafetyReport
    invariants: Dict[str, InvariantReport] = field(default_factory=dict)

    @property
    def decided_all(self) -> bool:
        """Every expected decider decided (an SMR run: learned every scheduled command)."""
        return self.outcome.all_decided

    def max_lag_after_ts(self) -> Optional[float]:
        """Worst post-``TS`` decision lag (an SMR run: latest command learn); None while undecided."""
        return self.outcome.max_lag_after_ts()


def run_scenario(
    scenario: Scenario,
    protocol: Union[str, ProtocolBuilder],
    *,
    enforce: bool = True,
) -> RunResult:
    """Execute ``protocol`` under ``scenario`` and return the analysed result.

    The run stops at the builder's stop event (for a single-decree protocol,
    the last expected decision), or at the scenario's horizon.

    Args:
        scenario: The workload to run.
        protocol: A protocol name from
            :data:`~repro.consensus.registry.PROTOCOLS` or a pre-built
            :class:`ProtocolBuilder` instance (such as an SMR run's).
        enforce: Raise if the safety check or a protocol trace invariant is
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
    builder.run_to_stop(simulator, deciders)

    safety = builder.check_safety(simulator, deciders)
    if enforce:
        safety.raise_if_violated()
    outcome = builder.build_outcome(simulator, scenario, protocol_name, safety)

    invariants: Dict[str, InvariantReport] = {}
    for name, check in builder.invariant_checks().items():
        report = check(simulator.trace, scenario.config.n)
        invariants[name] = report
        if enforce:
            report.raise_if_violated()

    return RunResult(
        scenario=scenario,
        protocol=protocol_name,
        builder=builder,
        simulator=simulator,
        outcome=outcome,
        safety=safety,
        invariants=invariants,
    )
