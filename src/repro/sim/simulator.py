"""The simulator: event loop, process fleet, decision bookkeeping.

The :class:`Simulator` wires together the event queue, the network, and the
nodes, and exposes the handful of operations the rest of the library builds
on: scheduling, message transmission, crash/restart injection, and decision
recording.  A simulation is deterministic given its configuration (including
the seed), which the regression tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.trace import TraceRecorder
from repro.errors import ConfigurationError, SimulationError
from repro.net.message import Envelope, Message
from repro.net.network import Network
from repro.params import TimingParams
from repro.sim.clock import DriftingClock
from repro.sim.events import EventHandle, EventQueue
from repro.sim.lifecycle import Node, ProcessStatus
from repro.sim.process import ProcessFactory
from repro.sim.rng import SeededRng

__all__ = ["DecisionRecord", "SimulationConfig", "Simulator"]


@dataclass(frozen=True)
class DecisionRecord:
    """One call to ``ctx.decide`` by some process."""

    pid: int
    value: Any
    time: float
    incarnation: int


@dataclass(frozen=True)
class SimulationConfig:
    """Static configuration of one simulation run.

    Attributes:
        n: Number of processes (ids ``0 .. n-1``).
        params: Known timing constants (δ, ρ, ε) shared with the protocols.
        ts: Global stabilization time (unknown to the processes; used by the
            network model and by the analysis).
        seed: Root random seed; every stream is derived from it.
        max_time: Hard stop for the event loop.
        trace_enabled: Whether to keep a structured trace.
        trace_capacity: Optional cap on trace size for long benchmark runs;
            a run whose trace hits it fails the trace invariant checks.
    """

    n: int
    params: TimingParams = field(default_factory=TimingParams)
    ts: float = 0.0
    seed: int = 0
    max_time: float = 10_000.0
    trace_enabled: bool = True
    trace_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be at least 1, got {self.n}")
        if self.ts < 0:
            raise ConfigurationError(f"ts must be non-negative, got {self.ts}")
        if self.max_time <= self.ts:
            raise ConfigurationError("max_time must exceed ts")

    @property
    def majority(self) -> int:
        return self.n // 2 + 1


class Simulator:
    """Discrete-event simulation of ``n`` processes over a network.

    Args:
        config: Static run configuration.
        process_factory: Builds a fresh protocol instance for a pid.
        network: The network substrate (already constructed with its
            synchrony model); the simulator binds itself as transport host.
        initial_values: Proposal per process; defaults to ``"value-<pid>"``.
            A shorter sequence is padded with defaults.
    """

    def __init__(
        self,
        config: SimulationConfig,
        process_factory: ProcessFactory,
        network: Network,
        initial_values: Optional[Sequence[Any]] = None,
    ) -> None:
        self.config = config
        self.network = network
        self.trace = TraceRecorder(
            enabled=config.trace_enabled, capacity=config.trace_capacity
        )
        self.rng = SeededRng(config.seed, label="sim")
        self._events = EventQueue()
        self._time = 0.0
        self._started = False
        self._stop_requested = False
        self.events_processed = 0

        self.decisions: Dict[int, DecisionRecord] = {}
        self.all_decisions: List[DecisionRecord] = []
        self.proposals: Dict[int, Any] = {}

        values = list(initial_values) if initial_values is not None else []
        clock_rng = self.rng.fork("clocks")
        self.nodes: Dict[int, Node] = {}
        for pid in range(config.n):
            value = values[pid] if pid < len(values) else f"value-{pid}"
            clock = DriftingClock(rate=clock_rng.clock_rate(config.params.rho))
            node = Node(
                pid=pid,
                simulator=self,
                factory=process_factory,
                params=config.params,
                clock=clock,
                rng=self.rng.fork(f"proc/{pid}"),
                initial_value=value,
            )
            self.nodes[pid] = node
            self.proposals[pid] = value

        self.network.bind(self)
        # Hot-path caches: bound dict lookup for delivery dispatch, and the
        # trace object whose ``enabled`` flag gates every record call site.
        self._nodes_get = self.nodes.get

    # -- time & scheduling -----------------------------------------------------
    def now(self) -> float:
        """Current simulated real time."""
        return self._time

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        *,
        label: str = "",
        priority: int = 0,
        args: Tuple = (),
        cancellable: bool = True,
    ) -> Optional[EventHandle]:
        """Schedule ``action(*args)`` at absolute time ``time`` (>= now).

        ``cancellable=False`` skips the :class:`EventHandle` allocation for
        events that are never cancelled (the network's deliveries) and
        returns ``None``.
        """
        if time < self._time:
            raise SimulationError(
                f"cannot schedule {label!r} at {time} before current time {self._time}"
            )
        return self._events.push(time, action, priority, label, args, cancellable)

    def schedule_in(
        self,
        delay: float,
        action: Callable[..., None],
        *,
        label: str = "",
        priority: int = 0,
        args: Tuple = (),
        cancellable: bool = True,
    ) -> Optional[EventHandle]:
        """Schedule ``action`` after a real delay (>= 0)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {label!r} with negative delay {delay}")
        # A non-negative delay cannot land before the current time, so push
        # directly instead of re-validating through schedule_at.
        return self._events.push(self._time + delay, action, priority, label, args, cancellable)

    def cancel(self, handle: EventHandle) -> None:
        self._events.cancel(handle)

    # -- transport host interface -------------------------------------------------
    def transmit(self, message: Message, src: int, dst: int) -> None:
        """Send a protocol message (called by nodes through their context)."""
        envelope = self.network.send(message, src, dst)
        trace = self.trace
        if trace.enabled:
            trace.record_send(
                self._time, src, dst, envelope.kind, envelope.msg_id, envelope.dropped
            )

    def deliver_envelope(self, envelope: Envelope) -> bool:
        """Deliver an envelope to its destination node (network callback)."""
        node = self._nodes_get(envelope.dst)
        if node is None:
            return False
        accepted = node.deliver(envelope)
        trace = self.trace
        if trace.enabled:
            trace.record_deliver(
                self._time, accepted, envelope.dst, envelope.src, envelope.kind, envelope.msg_id
            )
        return accepted

    # -- decisions ----------------------------------------------------------------
    def record_decision(self, pid: int, value: Any, incarnation: int) -> None:
        record = DecisionRecord(pid=pid, value=value, time=self._time, incarnation=incarnation)
        self.all_decisions.append(record)
        self.decisions.setdefault(pid, record)
        if self.trace.enabled:
            self.trace.record(self._time, "sim", "decide", pid=pid, value=value)

    def decided_pids(self) -> List[int]:
        return sorted(self.decisions)

    def has_decided(self, pid: int) -> bool:
        return pid in self.decisions

    # -- fault injection -------------------------------------------------------------
    def crash(self, pid: int) -> None:
        """Crash process ``pid`` now."""
        self._node(pid).crash()

    def restart(self, pid: int) -> None:
        """Restart process ``pid`` now (it must be crashed)."""
        self._node(pid).restart()

    def schedule_crash(self, pid: int, time: float) -> Optional[EventHandle]:
        return self.schedule_at(time, self.crash, args=(pid,), label=f"crash:p{pid}")

    def schedule_restart(self, pid: int, time: float) -> Optional[EventHandle]:
        return self.schedule_at(time, self.restart, args=(pid,), label=f"restart:p{pid}")

    def alive_pids(self) -> List[int]:
        return [pid for pid, node in self.nodes.items() if node.is_active]

    def crashed_pids(self) -> List[int]:
        return [pid for pid, node in self.nodes.items() if node.status is ProcessStatus.CRASHED]

    # -- running ------------------------------------------------------------------------
    def start(self) -> None:
        """Start every node at the current time (idempotent)."""
        if self._started:
            return
        self._started = True
        for pid in sorted(self.nodes):
            self.nodes[pid].start()

    def request_stop(self) -> None:
        """Ask the event loop to stop after the current event."""
        self._stop_requested = True

    def step(self) -> bool:
        """Process a single event.  Returns False if no event was available."""
        self.start()
        entry = self._events.pop_before(self.config.max_time)
        if entry is None:
            return False
        self._time = entry[0]
        entry[3](*entry[4])
        self.events_processed += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[["Simulator"], bool]] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        The loop body pulls raw ``(time, priority, seq, action, args, label)``
        entries straight off the queue via
        :meth:`~repro.sim.events.EventQueue.pop_before` — a single combined
        peek-and-pop with no per-event object construction.

        Args:
            until: Stop once the next event would be after this time.
            stop_when: Predicate evaluated after every event; True stops the loop.
            max_events: Safety valve on the number of processed events.

        Returns:
            The simulation time at which the loop stopped.
        """
        self.start()
        horizon = min(until, self.config.max_time) if until is not None else self.config.max_time
        processed = 0
        pop_before = self._events.pop_before
        while not self._stop_requested:
            if max_events is not None and processed >= max_events:
                break
            entry = pop_before(horizon)
            if entry is None:
                break
            self._time = entry[0]
            entry[3](*entry[4])
            self.events_processed += 1
            processed += 1
            if stop_when is not None and stop_when(self):
                break
        self._stop_requested = False
        return self._time

    def run_until_decided(
        self,
        pids: Optional[Iterable[int]] = None,
        until: Optional[float] = None,
    ) -> float:
        """Run until every pid in ``pids`` has decided (default: all processes)."""
        targets = set(pids) if pids is not None else set(self.nodes)
        return self.run(
            until=until,
            stop_when=lambda sim: targets.issubset(sim.decisions.keys()),
        )

    # -- helpers ---------------------------------------------------------------------------
    def _node(self, pid: int) -> Node:
        node = self.nodes.get(pid)
        if node is None:
            raise SimulationError(f"unknown process id {pid}")
        return node
