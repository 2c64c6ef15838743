"""The scenario abstraction shared by all workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.env.spec import EnvironmentSpec
from repro.faults.plan import FaultPlan
from repro.net.network import Network
from repro.sim.rng import SeededRng
from repro.sim.simulator import SimulationConfig, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.base import ProtocolBuilder
    from repro.env.registry import EnvironmentRegistry

__all__ = ["Scenario"]

PostSetupHook = Callable[[Simulator], None]


@dataclass
class Scenario:
    """Everything one simulation run needs, minus the protocol.

    A scenario is built from a declarative
    :class:`~repro.env.spec.EnvironmentSpec`: the environment supplies both
    the network and the fault plan, and is recorded in every
    :class:`~repro.consensus.values.RunOutcome` so results are reproducible
    from their own metadata.

    Attributes:
        name: Short identifier used in tables and traces.
        config: The simulation configuration (n, timing constants, ts, seed).
        environment: Declarative environment the run instantiates.
        environment_registry: Registry resolving the environment's adversary
            and fault kinds; None uses the default registry.  Pass a custom
            registry when the spec uses user-registered primitives.
        initial_values: Proposals per process; None lets the simulator use
            its defaults (distinct per-process values).
        post_setup: Optional hook run after the simulator is built but before
            it starts — used to inject in-flight pre-``TS`` messages.
        expected_deciders: Pids expected to decide; None means every process
            that is not left permanently crashed by the fault plan.
        allow_post_ts_crashes: Relax the paper's no-failures-after-``TS``
            assumption when validating the fault plan (set automatically for
            churn environments).
        notes: Free-form description used in reports.
        fault_plan: Crash/restart schedule derived from ``environment``
            (validated against the config when the simulator is built).
    """

    name: str
    config: SimulationConfig
    environment: EnvironmentSpec
    environment_registry: Optional["EnvironmentRegistry"] = None
    initial_values: Optional[List[Any]] = None
    post_setup: Optional[PostSetupHook] = None
    expected_deciders: Optional[List[int]] = None
    allow_post_ts_crashes: bool = False
    notes: str = ""
    fault_plan: FaultPlan = field(init=False)

    def __post_init__(self) -> None:
        registry = self.environment_registry
        self.fault_plan = self.environment.build_fault_plan(self.config, registry)
        if self.environment.allows_post_ts_crashes(registry):
            self.allow_post_ts_crashes = True

    def build_network(self, config: SimulationConfig, rng: SeededRng) -> Network:
        """Build the network (synchrony model + adversary) from the environment."""
        return self.environment.build_network(config, rng, self.environment_registry)

    def build_simulator(
        self, builder: "ProtocolBuilder", *, record_envelopes: bool = True
    ) -> Simulator:
        """Build a ready-to-run simulator of ``builder``'s processes under this scenario.

        The network draws from the seeded ``net`` stream forked by the
        scenario name; the fault plan is validated and applied, and the
        ``post_setup`` hook runs last.  ``record_envelopes`` keeps the
        network's per-envelope log (see
        :func:`~repro.harness.runner.run_scenario`).
        """
        config = self.config
        network = self.build_network(config, SeededRng(config.seed, label="net").fork(self.name))
        network.record_envelopes = record_envelopes
        simulator = Simulator(
            config=config,
            process_factory=builder.create,
            network=network,
            initial_values=self.initial_values,
        )
        builder.attach(simulator)
        self.fault_plan.validate(
            config.n, ts=config.ts, allow_post_ts_crashes=self.allow_post_ts_crashes
        )
        self.fault_plan.apply(simulator)
        if self.post_setup is not None:
            self.post_setup(simulator)
        return simulator

    def deciders(self) -> List[int]:
        """Pids expected to decide in this scenario."""
        if self.expected_deciders is not None:
            return sorted(self.expected_deciders)
        down_forever = self.fault_plan.final_down()
        return [pid for pid in range(self.config.n) if pid not in down_forever]

    def describe(self) -> str:
        lines = [
            f"scenario {self.name}: n={self.config.n} ts={self.config.ts:g} "
            f"seed={self.config.seed} ({self.config.params.describe()})",
            f"  faults: {self.fault_plan.describe()}",
            f"  environment: {self.environment.describe()}",
        ]
        if self.notes:
            lines.append(f"  notes: {self.notes}")
        return "\n".join(lines)
