"""Process lifecycle: the node wrapper around a protocol instance.

A :class:`Node` owns everything about one process that outlives a crash —
its id, its (hardware) clock, its stable storage — and everything that does
not: the current protocol object, its timers, and its incarnation number.
Crashing destroys the protocol object and all timers; restarting builds a
fresh protocol instance from the factory and hands it the same stable
storage, exactly matching the paper's "a failed process can restart at any
time ... by simply resuming where it left off" (with the resumption driven
by what the protocol persisted).

Timers are named and set in *local* clock time (the node's
:class:`~repro.sim.clock.DriftingClock` converts the delay to real time).
The node keeps ``name -> seq`` for the pending timers of the current
incarnation, where ``seq`` is the event queue's sequence number for the
timer's entry.  Setting a name again cancels the old entry and pushes a new
one; a firing timer leaves the table before the protocol sees it; a crash
cancels every pending entry, so no timer outlives its incarnation.

Messages arrive through :meth:`Node.deliver`, the action of every delivery
the network schedules: the run loop calls it straight from the queue entry
``(when, seq, node.deliver, (message, src, msg_id))``.  The node counts the
delivery in the network monitor's stats (``delivered`` when a protocol
incarnation takes it, ``to_crashed`` otherwise) and hands the message to
the protocol; nothing else runs per delivery.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import ProcessStateError, SchedulingError
from repro.params import TimingParams
from repro.sim.clock import DriftingClock
from repro.sim.process import Process, ProcessContext, ProcessFactory
from repro.sim.rng import SeededRng
from repro.storage.stable import StableStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

__all__ = ["Node", "ProcessStatus"]


class ProcessStatus(enum.Enum):
    """Lifecycle state of a node."""

    NOT_STARTED = "not-started"
    ACTIVE = "active"
    CRASHED = "crashed"


# Enum member lookups cost a descriptor call; the per-message checks below
# compare against this module constant instead.
_ACTIVE = ProcessStatus.ACTIVE


class Node:
    """One process slot: survives crashes, hosts successive protocol incarnations."""

    def __init__(
        self,
        pid: int,
        simulator: "Simulator",
        factory: ProcessFactory,
        params: TimingParams,
        clock: DriftingClock,
        rng: SeededRng,
        initial_value: Any,
    ) -> None:
        self.pid = pid
        self.simulator = simulator
        self.factory = factory
        self.params = params
        self.clock = clock
        self.rng = rng
        self.initial_value = initial_value
        self.storage = StableStore(owner=pid)
        self.status = ProcessStatus.NOT_STARTED
        self.incarnation = 0
        self.process: Optional[Process] = None
        self.crash_count = 0
        self.restart_count = 0
        self._queue = simulator._events
        # Delivery counts go straight into the network monitor's stats.
        self._stats = simulator.network.monitor.stats
        # Timer name -> sequence number of its pending queue entry.
        self._timers: Dict[str, int] = {}

    def __repr__(self) -> str:
        return f"Node(pid={self.pid}, status={self.status.value}, incarnation={self.incarnation})"

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Start the first incarnation (called by the simulator at time 0)."""
        if self.status is not ProcessStatus.NOT_STARTED:
            raise ProcessStateError(f"process {self.pid} already started")
        self._boot()

    def crash(self) -> None:
        """Crash the process: lose volatile state, stop receiving messages."""
        if self.status is not ProcessStatus.ACTIVE:
            raise ProcessStateError(
                f"cannot crash process {self.pid}: status is {self.status.value}"
            )
        self.status = ProcessStatus.CRASHED
        self.crash_count += 1
        queue = self._queue
        for seq in self._timers.values():
            queue.cancel(seq)
        self._timers.clear()
        if self.process is not None:
            self.process.on_stop()
        self.process = None
        self.simulator.trace.record(self.simulator.now(), "node", "crash", pid=self.pid)

    def restart(self) -> None:
        """Restart after a crash with a fresh protocol instance and old storage."""
        if self.status is not ProcessStatus.CRASHED:
            raise ProcessStateError(
                f"cannot restart process {self.pid}: status is {self.status.value}"
            )
        self.restart_count += 1
        self._boot(restarting=True)

    def _boot(self, restarting: bool = False) -> None:
        self.incarnation += 1
        self.status = ProcessStatus.ACTIVE
        self.process = self.factory(self.pid)
        self.process.initial_value = self.initial_value
        context = self._build_context()
        self.process.bind(context)
        event = "restart" if restarting else "start"
        self.simulator.trace.record(
            self.simulator.now(), "node", event, pid=self.pid, incarnation=self.incarnation
        )
        self.process.on_start()

    # -- interaction with the simulator ----------------------------------------
    def deliver(self, message: Any, src: int, msg_id: int) -> bool:
        """Deliver message ``msg_id`` from ``src`` to the protocol; False if the node is not active.

        Counts the delivery as ``delivered``, or as ``to_crashed`` when no
        incarnation is running.  ``msg_id`` is the network's id for the
        message; the protocol does not see it.
        """
        process = self.process
        if process is None or self.status is not _ACTIVE:
            self._stats.to_crashed += 1
            return False
        process.on_message(message, src)
        self._stats.delivered += 1
        return True

    def local_time(self) -> float:
        return self.clock.local_time(self.simulator.now())

    # -- context plumbing ---------------------------------------------------------
    def _build_context(self) -> ProcessContext:
        return ProcessContext(
            pid=self.pid,
            n=self.simulator.config.n,
            params=self.params,
            storage=self.storage,
            rng=self.rng,
            send=self._send,
            set_timer=self._set_timer,
            decide=self._decide,
            local_time=self.local_time,
            emit=self._emit,
        )

    def _send(self, message: Any, dsts: Tuple[int, ...]) -> None:
        if self.status is not _ACTIVE:
            return
        self.simulator.network.send(message, self.pid, dsts)

    def _set_timer(self, name: str, local_delay: float) -> None:
        if self.status is not _ACTIVE:
            return
        if local_delay < 0:
            raise SchedulingError(f"timer {name!r} set with negative delay {local_delay}")
        queue = self._queue
        timers = self._timers
        seq = timers.get(name)
        if seq is not None:
            queue.cancel(seq)
        fires_at = self.simulator._time + self.clock.real_duration(local_delay)
        # Bound method + args instead of a closure: timers are reset on every
        # protocol cadence tick.
        timers[name] = queue.push(fires_at, self._timer_fired, (name,))

    def _timer_fired(self, name: str) -> None:
        del self._timers[name]
        if self.status is _ACTIVE and self.process is not None:
            self.process.on_timer(name)

    def _decide(self, value: Any) -> None:
        if self.status is not _ACTIVE:
            return
        self.simulator.record_decision(self.pid, value, self.incarnation)

    def _emit(self, event: str, fields: dict) -> None:
        self.simulator.trace.record(self.simulator.now(), "protocol", event, pid=self.pid, **fields)
