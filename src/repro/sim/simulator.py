"""The simulator: event loop, process fleet, decision bookkeeping.

The :class:`Simulator` wires together the event queue, the network, and the
nodes, and exposes the handful of operations the rest of the library builds
on: scheduling, crash/restart injection, decision recording, and the run
loop.  Messages bypass it: nodes hand their sends straight to the network,
which pushes each delivery onto the event queue as a call to the
destination node's ``deliver``, and the run loop makes that call when the
entry fires.  A simulation is deterministic given its
configuration (including the seed), which the regression tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.trace import TraceRecorder
from repro.errors import ConfigurationError, SimulationError
from repro.net.network import Network
from repro.params import TimingParams
from repro.sim.clock import DriftingClock
from repro.sim.events import EventQueue
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
    """

    n: int
    params: TimingParams = field(default_factory=TimingParams)
    ts: float = 0.0
    seed: int = 0
    max_time: float = 10_000.0

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
            synchrony model); the simulator binds it to its queue and nodes.
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
        self.trace = TraceRecorder()
        self.rng = SeededRng(config.seed, label="sim")
        self._events = EventQueue()
        self._time = 0.0
        self._started = False
        self.events_processed = 0
        # Set by ``run_until_decided``: the pids still to decide, and the
        # flag ``record_decision`` (or ``halt``) raises to stop the run.
        self._awaited: Optional[Set[int]] = None
        self._halt = False

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

    # -- time & scheduling -----------------------------------------------------
    def now(self) -> float:
        """Current simulated real time."""
        return self._time

    def schedule_at(self, time: float, action: Callable[..., None], *, args: Tuple = ()) -> None:
        """Schedule ``action(*args)`` at absolute time ``time`` (>= now; NaN is refused)."""
        if not time >= self._time:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._time}"
            )
        self._events.push(time, action, args)

    def schedule_in(self, delay: float, action: Callable[..., None], *, args: Tuple = ()) -> None:
        """Schedule ``action(*args)`` after a real delay (>= 0)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event with negative delay {delay}")
        # A non-negative delay cannot land before the current time, so push
        # directly instead of re-validating through schedule_at.
        self._events.push(self._time + delay, action, args)

    # -- decisions ----------------------------------------------------------------
    def record_decision(self, pid: int, value: Any, incarnation: int) -> None:
        record = DecisionRecord(pid=pid, value=value, time=self._time, incarnation=incarnation)
        self.all_decisions.append(record)
        self.decisions.setdefault(pid, record)
        self.trace.record(self._time, "sim", "decide", pid=pid, value=value)
        awaited = self._awaited
        if awaited is not None:
            awaited.discard(pid)
            if not awaited:
                self.halt()

    def halt(self) -> None:
        """Stop the current run after the event being processed."""
        self._halt = True

    def has_decided(self, pid: int) -> bool:
        return pid in self.decisions

    # -- fault injection -------------------------------------------------------------
    def crash(self, pid: int) -> None:
        """Crash process ``pid`` now."""
        self._node(pid).crash()

    def restart(self, pid: int) -> None:
        """Restart process ``pid`` now (it must be crashed)."""
        self._node(pid).restart()

    def schedule_crash(self, pid: int, time: float) -> None:
        self.schedule_at(time, self.crash, args=(pid,))

    def schedule_restart(self, pid: int, time: float) -> None:
        self.schedule_at(time, self.restart, args=(pid,))

    def alive_pids(self) -> List[int]:
        return [pid for pid, node in self.nodes.items() if node.status is ProcessStatus.ACTIVE]

    # -- running ------------------------------------------------------------------------
    def start(self) -> None:
        """Start every node at the current time (idempotent)."""
        if self._started:
            return
        self._started = True
        for pid in sorted(self.nodes):
            self.nodes[pid].start()

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[["Simulator"], bool]] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        The loop pops raw ``(time, seq, action, args)`` entries off the
        queue's heap itself, skips cancelled ones, and fires
        ``action(*args)``; a delivery is ``node.deliver(message, src,
        msg_id)`` called straight from its entry.  The first live entry past
        the horizon goes back on the heap, untouched.

        The run stops, after the event being processed, at the first of: the
        queue holds no event at or before the horizon (``until``, capped by
        ``config.max_time``); ``max_events`` events were processed;
        ``stop_when`` returned True; or :meth:`halt` was called (as under
        :meth:`run_until_decided` once the last awaited pid decides).
        ``events_processed`` grows by the events whose action returned, also
        when one raises.

        Args:
            until: Stop once the next event would be after this time.
            stop_when: Predicate evaluated after every event; True stops the loop.
            max_events: Safety valve on the number of processed events.

        Returns:
            The simulation time at which the loop stopped.
        """
        self.start()
        horizon = min(until, self.config.max_time) if until is not None else self.config.max_time
        heap = self._events._heap
        cancelled = self._events._cancelled
        processed = 0
        try:
            while heap:
                if max_events is not None and processed >= max_events:
                    break
                entry = heappop(heap)
                time, seq, action, args = entry
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if time > horizon:
                    heappush(heap, entry)
                    break
                self._time = time
                action(*args)
                processed += 1
                if self._halt or (stop_when is not None and stop_when(self)):
                    break
        finally:
            self.events_processed += processed
        self._halt = False
        return self._time

    def run_until_decided(self, pids: Iterable[int]) -> float:
        """Run until every pid in ``pids`` has decided.

        :meth:`record_decision` stops the run from inside the event in which
        the last awaited pid decides, so no predicate runs per event; the run
        ends at the same event a ``stop_when`` of "every pid has decided"
        would.  If every pid has already decided, one event is processed (as
        with that predicate); if one never decides, the run ends at
        ``config.max_time``.
        """
        awaited = set(pids)
        awaited -= self.decisions.keys()
        self._awaited = awaited
        self._halt = not awaited
        try:
            return self.run()
        finally:
            self._awaited = None

    # -- helpers ---------------------------------------------------------------------------
    def _node(self, pid: int) -> Node:
        node = self.nodes.get(pid)
        if node is None:
            raise SimulationError(f"unknown process id {pid}")
        return node
